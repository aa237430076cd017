"""One exact-solve budget: the solver policy's boundaries.

* ``guarantee="optimal"`` under ``exact_budget_s`` is "provably optimal
  or fail" on every path — serial, a pool ``clean`` starts, a running
  executor pool, the global path, a streaming session and the daemon —
  and a failed repair caches nothing;
* the guarantee is part of the solver policy, so it scopes a shared
  cache: an ``"optimal"`` session or daemon tenant is never served the
  2-approximation a ``"best"`` one fell back to;
* malformed solver knobs, the guarantee included, are refused by
  :func:`resolve_plan_defaults`, the one resolver behind the library,
  the CLI and the daemon;
* states written while the per-solve cap (``per_component_budget_s``)
  existed still restore, and cache entries solved under a cap are
  dropped and counted, never served.
"""

import asyncio
import json
import math
import os
import pickle
import random
import shutil
import subprocess
import sys
from contextlib import closing

import pytest

from repro.cli import main
from repro.core.decompose import resolve_plan_defaults
from repro.core.fd import FDSet
from repro.core.table import Table
from repro.datagen.synthetic import portfolio_mix_table
from repro.exec import PersistentWorkerPool
from repro.graphs.vertex_cover import ExactBudgetExceeded
from repro.io.tables import table_to_csv
from repro.pipeline import clean
from repro.protocol import ProtocolError
from repro.server import RepairServer, ServerConfig, SessionManager
from repro.session import RepairSession, SolutionCache
from repro.state import JOURNAL_NAME, SNAPSHOT_NAME, OpJournal, load_snapshot

FDS_TEXT = "A -> B; B -> C"
FDS = FDSet(FDS_TEXT)
SCHEMA = ("A", "B", "C")
DATA = os.path.join(os.path.dirname(__file__), "data")


def _mix():
    """Six easy paths and two dense tangles: under a zero budget the
    paths still solve exactly, the tangles cannot."""
    return portfolio_mix_table(SCHEMA, hard_components=2, seed=11)


def _pool(workers):
    pool = PersistentWorkerPool(workers)
    if not pool.start():
        pool.close()
        pytest.skip("platform cannot start pool workers")
    return pool


# ---------------------------------------------------------------------------
# guarantee="optimal" with a budget: provably optimal or fail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["serial", "parallel", "global"])
def test_optimal_under_budget_raises_on_clean(mode):
    kwargs = {"decomposed": False} if mode == "global" else {}
    with closing(PersistentWorkerPool(2)) as pool:
        if mode == "parallel":
            kwargs["executor"] = pool
        with pytest.raises(ExactBudgetExceeded):
            clean(_mix(), FDS, guarantee="optimal", exact_budget_s=0.0,
                  **kwargs)


def test_optimal_under_budget_raises_on_an_executor():
    with _pool(2) as pool:
        with pytest.raises(ExactBudgetExceeded):
            clean(_mix(), FDS, guarantee="optimal", exact_budget_s=0.0,
                  executor=pool)
        # The pool survives the failed call and serves the next one.
        fast = clean(_mix(), FDS, guarantee="fast", executor=pool)
    assert fast.distance == clean(_mix(), FDS, guarantee="fast").distance


def test_optimal_with_an_ample_budget_is_optimal():
    result = clean(_mix(), FDS, guarantee="optimal", exact_budget_s=3600.0)
    assert result.optimal and result.ratio_bound == 1.0


@pytest.mark.parametrize("parallel", [None, 2])
def test_optimal_session_repair_raises_and_caches_nothing(parallel):
    pool = None if parallel is None else _pool(parallel)
    try:
        with RepairSession(Table(SCHEMA, {}), FDS, guarantee="optimal",
                           exact_budget_s=0.0, pool=pool) as session:
            table = _mix()
            with pytest.raises(ExactBudgetExceeded):
                session.append(**_mix_append())
            # The delta landed; the failed repair left no cache entry
            # and no result behind.
            assert len(session) == len(table)
            assert session.cache_size() == 0
            assert session.last_result is None
            assert session.stats.repairs == 0
            with pytest.raises(ExactBudgetExceeded):
                session.repair()
            assert session.cache_size() == 0
    finally:
        if pool is not None:
            pool.close()


def test_optimal_session_on_a_shared_pool_raises():
    table = _mix()
    with _pool(2) as pool:
        session = RepairSession(table, FDS, guarantee="optimal",
                                exact_budget_s=0.0, pool=pool)
        try:
            with pytest.raises(ExactBudgetExceeded):
                session.repair()
            assert session.stats.pool_solves > 0
            assert session.cache_size() == 0
        finally:
            session.close()


@pytest.mark.parametrize(
    "extra", [[], ["--parallel", "2"], ["--shards", "2"], ["--global"]]
)
def test_cli_optimal_under_budget_fails_with_one_error_line(tmp_path, extra):
    csv_path = tmp_path / "mix.csv"
    table_to_csv(_mix(), str(csv_path))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(DATA), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "s-repair", str(csv_path),
         FDS_TEXT, "--guarantee", "optimal", "--exact-budget", "0", *extra],
        capture_output=True, text=True, env=env, timeout=300,
    )
    if extra[0:1] == ["--shards"]:
        # Retired with its worker transport: refused like any unknown flag.
        assert proc.returncode == 2, proc.stderr
        assert "unrecognized arguments: --shards" in proc.stderr
        return
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _open_payload(**extra):
    return {"schema": list(SCHEMA), "fds": FDS_TEXT, **extra}


def _mix_append():
    """The mix as one append payload (session call or daemon op)."""
    items = list(_mix().tuples())
    return {
        "rows": [list(row) for _tid, row, _w in items],
        "weights": [w for _tid, _row, w in items],
        "ids": [tid for tid, _row, _w in items],
    }


def _handle(server, *requests):
    """Drive *requests* through :meth:`RepairServer.handle_line`; one
    reply each."""
    replies = []

    async def write(reply):
        replies.append(reply)

    async def drive():
        for request in requests:
            await server.handle_line(json.dumps(request), write)

    asyncio.run(drive())
    assert len(replies) == len(requests)
    return replies


def _state_blobs(manager):
    """Every session's exported state, canonically pickled per field."""
    out = {}
    for key in sorted(manager._entries):
        state = manager._ensure_live(manager._entries[key]).export_state()
        out[key] = {
            k: pickle.dumps(sorted(v, key=repr) if isinstance(v, set) else v)
            for k, v in state.items()
        }
    return out


def test_daemon_optimal_under_budget_answers_and_journals(tmp_path):
    state = str(tmp_path / "state")
    manager = SessionManager(ServerConfig(workers=0, state_dir=state))
    server = RepairServer(manager)
    address = {"tenant": "t", "session": "s"}
    opened, appended, status = _handle(
        server,
        {"op": "open", "seq": 1, **address,
         **_open_payload(guarantee="optimal", exact_budget_s=0.0)},
        {"op": "append", "seq": 2, **address, **_mix_append()},
        {"op": "status", "seq": 3, **address},
    )
    assert opened["ok"]
    assert appended["ok"] is False and appended["seq"] == 2
    assert "ExactBudgetExceeded" in appended["error"]
    # The delta was applied even though its repair failed ...
    assert status["ok"] and status["tuples"] == len(_mix())
    records = OpJournal.read_chain(os.path.join(state, JOURNAL_NAME))[0]
    # ... so it is journaled, and a restart agrees with the live session.
    assert [r["op"] for r in records] == ["open", "append"]
    expected = _state_blobs(manager)
    assert manager.entry("t", "s").live.cache_size() == 0
    del manager, server  # crash: no shutdown, the journal alone replays
    recovered = SessionManager(ServerConfig(workers=0, state_dir=state))
    try:
        assert recovered.stats()["replayed_ops"] == 2
        assert _state_blobs(recovered) == expected
        session = recovered.entry("t", "s").live
        assert len(session) == len(_mix())
    finally:
        recovered.shutdown()


# ---------------------------------------------------------------------------
# The guarantee scopes the cache: "optimal" is never served "best"'s fallback
# ---------------------------------------------------------------------------

#: A global budget far below one exact solve, at a unit cost that still
#: grants the solve: "best" plans the component exact with a 1e-9 s
#: slice and falls back to the 2-approximation, "optimal" plans the
#: same method and slice and must raise instead.
TINY_BUDGET = {"exact_budget_s": 1e-9, "unit_cost_s": 1e-15}


def _one_hard_component(monkeypatch):
    """40 rows forming one hard-Δ conflict component, with the budget
    checked at every branch & bound node so the tiny budget trips."""
    from repro.core import kernel
    from repro.graphs import vertex_cover as vc

    monkeypatch.setattr(kernel, "_BUDGET_CHECK_INTERVAL", 1)
    monkeypatch.setattr(vc, "_BUDGET_CHECK_INTERVAL", 1)
    rng = random.Random(4)
    rows = [(f"a{rng.randrange(6)}", f"b{rng.randrange(6)}",
             f"c{rng.randrange(3)}") for _ in range(40)]
    table = Table.from_rows(SCHEMA, rows)
    with pytest.raises(ExactBudgetExceeded):
        clean(table, FDS, guarantee="optimal", **TINY_BUDGET)
    return table


def test_optimal_session_is_not_served_a_best_sessions_fallback(
        monkeypatch):
    table = _one_hard_component(monkeypatch)
    shared = SolutionCache()
    best = RepairSession(table, FDS, solutions=shared, **TINY_BUDGET)
    assert best.repair().method_counts == {"approx": 1}
    entries = len(shared)
    optimal = RepairSession(table, FDS, guarantee="optimal",
                            solutions=shared, **TINY_BUDGET)
    with pytest.raises(ExactBudgetExceeded):
        optimal.repair()
    assert len(shared) == entries
    assert optimal.last_result is None


def test_optimal_tenant_is_not_served_a_best_tenants_fallback(monkeypatch):
    table = _one_hard_component(monkeypatch)
    rows = {"rows": [list(row) for _tid, row, _w in table.tuples()]}
    manager = SessionManager(ServerConfig(workers=0))
    try:
        manager.open("best", "s", _open_payload(**rows, **TINY_BUDGET))
        repaired = manager.run_op(manager.entry("best", "s"), "repair", {})
        assert repaired["optimal"] is False
        entries = len(manager.solutions)
        manager.open("optimal", "s", _open_payload(
            **rows, guarantee="optimal", **TINY_BUDGET))
        with pytest.raises(ExactBudgetExceeded):
            manager.run_op(manager.entry("optimal", "s"), "repair", {})
        assert len(manager.solutions) == entries
    finally:
        manager.shutdown()


def test_a_policy_pickled_before_the_guarantee_reads_best():
    """Cache keys in states and snapshots written before the policy
    carried the guarantee keep their scope: the unpickled policy reads
    the class default ``"best"``."""
    snapshot = _v2_fixture("daemon_snapshot.pkl")
    policy = next(iter(snapshot["solutions"]))[0][2]
    assert "guarantee" not in vars(policy)
    assert policy.guarantee == "best"
    assert policy == resolve_plan_defaults(
        policy.threshold, policy.node_limit, policy.exact_budget_s,
        policy.unit_cost_s,
    )
    assert policy != resolve_plan_defaults(
        policy.threshold, policy.node_limit, policy.exact_budget_s,
        policy.unit_cost_s, "optimal",
    )


# ---------------------------------------------------------------------------
# Malformed solver knobs
# ---------------------------------------------------------------------------

BAD_KNOBS = [
    {"exact_budget_s": "abc"},
    {"exact_budget_s": math.nan},
    {"exact_budget_s": math.inf},
    {"exact_budget_s": -1},
    {"exact_budget_s": True},
    {"exact_threshold": "12"},
    {"exact_threshold": -5},
    {"exact_threshold": 3.5},
    {"exact_threshold": True},
    {"node_limit": "x"},
    {"node_limit": 0},
    {"unit_cost_s": -1},
    {"unit_cost_s": 0},
    {"unit_cost_s": math.nan},
    {"guarantee": "bogus"},
    {"guarantee": ["best"]},
]


@pytest.mark.parametrize("knobs", BAD_KNOBS, ids=repr)
def test_resolve_plan_defaults_refuses_malformed_knobs(knobs):
    with pytest.raises(ValueError):
        resolve_plan_defaults(**knobs)


def test_clean_and_session_refuse_an_unknown_guarantee():
    for build in (
        lambda: clean(_mix(), FDS, guarantee="bogus"),
        lambda: RepairSession(Table(SCHEMA, {}), FDS, guarantee="bogus"),
    ):
        with pytest.raises(ValueError, match="unknown guarantee 'bogus'"):
            build()


def test_resolve_plan_defaults_accepts_boundary_values():
    policy = resolve_plan_defaults(
        exact_threshold=0, node_limit=1, exact_budget_s=0, unit_cost_s=1e-9
    )
    assert (policy.threshold, policy.node_limit) == (0, 1)
    assert policy.exact_budget_s == 0 and policy.unit_cost_s == 1e-9


@pytest.mark.parametrize("knobs", BAD_KNOBS, ids=repr)
def test_daemon_open_refuses_malformed_knobs(tmp_path, knobs):
    state = str(tmp_path / "state")
    manager = SessionManager(ServerConfig(workers=0, state_dir=state))
    try:
        with pytest.raises(ProtocolError):
            manager.open("t", "s", _open_payload(**knobs))
        # The slot is released and nothing was journaled.
        assert manager.open("t", "s", _open_payload())["opened"]
        records = OpJournal.read_chain(os.path.join(state, JOURNAL_NAME))[0]
        assert [r["payload"] for r in records] == [_open_payload()]
    finally:
        manager.shutdown()


@pytest.mark.parametrize("flags", [
    ["--exact-budget", "nan"],
    ["--exact-budget", "-1"],
    ["--exact-threshold", "-5"],
    ["--unit-cost", "-1"],
])
def test_cli_refuses_malformed_knobs(tmp_path, capsys, flags):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("id,A,B,C,weight\n1,a,x,p,1\n2,a,y,p,2\n",
                        encoding="utf-8")
    assert main(["s-repair", str(csv_path), "A -> B", *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_serve_refuses_a_bad_unit_cost_at_startup(capsys):
    assert main(["serve", "--stdio", "--unit-cost", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "unit_cost_s" in err[0]


@pytest.mark.parametrize("flag", [["--per-component-budget", "1"],
                                  ["--approx"]])
def test_retired_flags_are_gone(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["s-repair", str(tmp_path / "t.csv"), "A -> B", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["s-repair", "t.csv", "A -> B"],
    ["stream", "A -> B", "--schema", "A,B"],
    ["serve", "--stdio"],
])
def test_shards_flag_is_gone_on_every_command(command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--shards", "2"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# States written while the per-solve cap existed
# ---------------------------------------------------------------------------


def _v2_fixture(name):
    with open(os.path.join(DATA, "v2", name), "rb") as handle:
        return pickle.load(handle)


def test_capped_v2_state_restores_without_its_capped_cache():
    """A library session exported with ``per_component_budget_s=0.5``
    restores without the cap, and its cache entries — solved under the
    cap — are dropped and counted.  The trap they would spring: the
    unpickled policy still holds the cap in its ``__dict__``, but ``==``
    and ``hash`` ignore it, so its keys collide with uncapped ones."""
    old = _v2_fixture("session_state.pkl")
    assert old["version"] == 2 and old["solutions"]
    assert old["options"]["per_component_budget_s"] == 0.5
    policy = next(iter(old["solutions"]))[0][2]
    assert vars(policy)["per_component_budget_s"] == 0.5
    uncapped = resolve_plan_defaults(
        old["options"]["exact_threshold"], old["options"]["node_limit"],
        old["options"]["exact_budget_s"], old["options"]["unit_cost_s"],
    )
    assert policy == uncapped and hash(policy) == hash(uncapped)

    session = RepairSession.restore(old)
    assert session.dropped_cache_entries == len(old["solutions"])
    assert session.cache_size() == 0
    new = session.export_state()
    assert "per_component_budget_s" not in new["options"]
    for field in ("rows", "weights", "next_auto_id", "stats"):
        assert new[field] == old[field], field
    result = session.repair()
    assert session.stats.cache_hits == old["stats"]["cache_hits"]
    expected = clean(Table(SCHEMA, old["rows"], old["weights"]), old["fds"])
    assert table_to_csv(result.cleaned) == table_to_csv(expected.cleaned)
    assert result.method == expected.method
    # Onto a shared cache nothing is loaded either.
    shared = SolutionCache()
    restored = RepairSession.restore(old, solutions=shared)
    assert len(shared) == 0
    assert restored.dropped_cache_entries == len(old["solutions"])


def test_v2_daemon_snapshot_recovers_with_a_warm_cache(tmp_path):
    """A daemon snapshot written before the cap's retirement recovers
    every session (options without the cap) and keeps its cache: no
    entry was solved under a cap, so none is dropped, and the first
    repair of known content is a hit."""
    fixture = os.path.join(DATA, "v2", "daemon_snapshot.pkl")
    snapshot = _v2_fixture("daemon_snapshot.pkl")
    assert snapshot["version"] == 2 and snapshot["solutions"]
    state = tmp_path / "state"
    state.mkdir()
    shutil.copy(fixture, state / SNAPSHOT_NAME)
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state)))
    try:
        stats = manager.stats()
        assert stats["recovered_sessions"] == len(snapshot["sessions"])
        assert stats["dropped_cache_entries"] == 0
        assert len(manager.solutions) == len(snapshot["solutions"])
        for item in snapshot["sessions"]:
            old = pickle.loads(item["blob"])
            entry = manager.entry(item["tenant"], item["name"])
            session = manager._ensure_live(entry)
            assert "per_component_budget_s" in old["options"]
            assert "per_component_budget_s" not in (
                session.export_state()["options"]
            )
            hits = manager.solutions.hits
            misses = manager.solutions.misses
            result = session.repair()
            assert manager.solutions.misses == misses
            assert manager.solutions.hits > hits
            expected = clean(
                Table(SCHEMA, old["rows"], old["weights"]), old["fds"],
                exact_threshold=old["options"]["exact_threshold"],
                exact_budget_s=old["options"]["exact_budget_s"],
            )
            assert table_to_csv(result.cleaned) == table_to_csv(
                expected.cleaned
            )
    finally:
        manager.shutdown()
    assert load_snapshot(str(state / SNAPSHOT_NAME))["version"] == 3


def test_v2_daemon_snapshot_with_a_capped_entry_drops_it(tmp_path):
    """A shared-cache entry whose scope carries a cap is not served:
    recovery drops it and reports the count."""
    snapshot = _v2_fixture("daemon_snapshot.pkl")
    capped = dict(snapshot["solutions"])
    key, entry = next(iter(capped.items()))
    policy = pickle.loads(pickle.dumps(key[0][2]))
    policy.__dict__["per_component_budget_s"] = 0.25
    del capped[key]
    capped[((key[0][0], key[0][1], policy),) + key[1:]] = entry
    state = tmp_path / "state"
    state.mkdir()
    with open(state / SNAPSHOT_NAME, "wb") as handle:
        pickle.dump({**snapshot, "solutions": capped}, handle, protocol=4)
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state)))
    try:
        assert manager.stats()["dropped_cache_entries"] == 1
        assert len(manager.solutions) == len(capped) - 1
    finally:
        manager.shutdown()
