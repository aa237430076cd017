"""Saved state: one allowlisted decoder and one migration chain.

``repro.state`` encodes, loads and migrates every session state and
daemon snapshot.  Pinned here:

* a saved state that names any global outside the allowlist is refused
  before anything it names is imported or called — in a snapshot and in
  a frozen session's spool blob alike — and an unreadable spool blob
  fails only its own session's ops;
* an encoded state restores to a session whose repairs are
  byte-identical to the never-evicted session and to a scratch
  ``clean``, on a private and on a shared cache;
* every committed ``tests/data`` fixture goes through the chain and
  repairs like a scratch ``clean``, with the dropped-entry counts of
  its version;
* an unreadable snapshot is moved aside and reported, never overwritten,
  and journal lines past a damaged record are counted.
"""

import asyncio
import json
import os
import pickle
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fd import FDSet
from repro.core.table import Table
from repro.io.tables import table_to_csv
from repro.pipeline import clean
from repro.protocol import encode
from repro.server import RepairServer, ServerConfig, SessionManager
from repro.session import RepairSession, SolutionCache
from repro.state import (
    FORMAT_VERSION,
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    OpJournal,
    UnreadableState,
    encode_session,
    load_session,
    load_snapshot,
    migrate,
)

SCHEMA = ("A", "B", "C")
DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(DATA), os.pardir, "src")

FD_SETS = [
    FDSet("A -> B"),
    FDSet("A -> B; B -> C"),
    FDSet("A B -> C"),
]

#: The options ``clean`` shares with a session.
_CLEAN_OPTIONS = ("guarantee", "exact_threshold", "exact_budget_s",
                  "unit_cost_s")


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


def _scratch_clean(session, fds, options):
    table = Table(SCHEMA, session.table.rows(), session.table.weights())
    return clean(table, fds, **{k: options[k] for k in _CLEAN_OPTIONS
                                if k in options})


# ---------------------------------------------------------------------------
# The allowlist: a foreign global is refused, never called
# ---------------------------------------------------------------------------

#: Calls of :func:`_arm`; any entry means a saved state ran code.
ARMED = []


def _arm(*args):
    ARMED.append(args)
    return {}


class _Armed:
    """Pickles as a call of :func:`_arm`, a global no state may name."""

    def __reduce__(self):
        return (_arm, ("armed",))


@pytest.fixture(autouse=True)
def _disarm():
    ARMED.clear()
    yield
    ARMED.clear()


def test_snapshot_naming_a_foreign_global_is_refused(tmp_path, capsys):
    """Loading such a snapshot raises instead of calling the global;
    a daemon booting on it moves it aside, reports it, and recovers
    from the journal alone."""
    state = tmp_path / "state"
    state.mkdir()
    path = state / SNAPSHOT_NAME
    with open(path, "wb") as handle:
        pickle.dump({"version": FORMAT_VERSION, "journal_seq": 0,
                     "sessions": [], "solutions": {},
                     "supervision": _Armed()}, handle, protocol=4)
    with pytest.raises(UnreadableState, match="refused"):
        load_snapshot(str(path))
    assert ARMED == []
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state)))
    try:
        stats = manager.stats()
        assert ARMED == []
        moved = stats["unreadable_snapshot"]
        assert moved["path"] == str(path) + ".unreadable"
        assert "refused" in moved["reason"]
        assert stats["recovered_sessions"] == 0
    finally:
        manager.shutdown()
    assert ARMED == []
    assert os.path.exists(str(path) + ".unreadable")
    assert "is unreadable" in capsys.readouterr().err


_BAD_BLOBS = {
    "foreign-global": lambda: pickle.dumps(
        {"version": FORMAT_VERSION, "rows": _Armed()}, protocol=4
    ),
    "undecodable": lambda: b"\x80\x04not a pickle",
}


def _serve(requests, state_dir, bad_blob):
    """Run *requests* through one daemon: ``"freeze"`` freezes the
    ``mallory`` session and, when *bad_blob* is given, replaces its
    spool blob.  Returns the encoded replies by tenant."""
    manager = SessionManager(ServerConfig(
        workers=0, executor_threads=2, state_dir=state_dir,
    ))
    server = RepairServer(manager)
    replies = {}

    async def write(reply):
        replies.setdefault(reply.get("tenant"), []).append(encode(reply))

    async def drive():
        for request in requests:
            if request == "freeze":
                entry = manager.entry("mallory", "s")
                manager._freeze(entry)
                if bad_blob is not None:
                    manager.store[entry.session_key] = bad_blob
                continue
            await server.handle_line(json.dumps(request), write)
        await server.aclose()

    asyncio.run(drive())
    return replies


@pytest.mark.parametrize("blob", sorted(_BAD_BLOBS))
@pytest.mark.parametrize("on_disk", [False, True])
def test_unreadable_spool_blob_fails_only_its_own_session(
    blob, on_disk, tmp_path, capsys
):
    """A frozen session whose spool blob is refused or undecodable
    answers every op with a protocol error (no traceback); another
    tenant's replies are byte-identical to those of a daemon where the
    failed ops were never sent."""
    rows = [["a", "x", "p"], ["a", "y", "p"], ["b", "y", "q"]]

    def opened(tenant, seq):
        return {"op": "open", "tenant": tenant, "session": "s", "seq": seq,
                "schema": list(SCHEMA), "fds": "A -> B; B -> C",
                "rows": rows}

    alice = {"tenant": "alice", "session": "s"}
    requests = [
        opened("mallory", 1), opened("alice", 2), "freeze",
        {"op": "repair", "tenant": "mallory", "session": "s", "seq": 3},
        {"op": "append", "seq": 4, "rows": [["b", "z", "q"]], **alice},
        {"op": "status", "tenant": "mallory", "session": "s", "seq": 5},
        {"op": "repair", "seq": 6, **alice},
        {"op": "delete", "seq": 7, "ids": [1], **alice},
        {"op": "status", "seq": 8, **alice},
    ]
    states = [str(tmp_path / name) if on_disk else None
              for name in ("damaged", "intact")]
    damaged = _serve(requests, states[0], _BAD_BLOBS[blob]())
    unsent = [r for r in requests
              if r == "freeze" or r["tenant"] == "alice" or r["seq"] == 1]
    reference = _serve(unsent, states[1], None)
    assert ARMED == []
    assert damaged["alice"] == reference["alice"]
    failed = [json.loads(line) for line in damaged["mallory"][1:]]
    assert [reply["ok"] for reply in failed] == [False, False]
    for reply in failed:
        assert reply["error"] == (
            "frozen state for session 's' of tenant 'mallory' is unreadable"
        )
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Round trip: encode → load → restore ≡ never evicted ≡ scratch clean
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_encoded_state_repairs_like_the_session_and_clean(data):
    fds = data.draw(st.sampled_from(FD_SETS))
    shared = data.draw(st.booleans())
    cache = SolutionCache() if shared else None
    value = st.integers(min_value=0, max_value=2)
    row_st = st.tuples(value, value, value)
    weight_st = st.sampled_from((1.0, 0.5, 2.0))
    start = data.draw(st.lists(st.tuples(row_st, weight_st), max_size=8))
    session = RepairSession(
        Table.from_rows(SCHEMA, [r for r, _w in start],
                        [w for _r, w in start]),
        fds, solutions=cache,
    )
    for _step in range(data.draw(st.integers(min_value=1, max_value=5))):
        live = list(session.table.ids())
        repair = data.draw(st.booleans())
        if live and data.draw(st.booleans()):
            session.delete(
                data.draw(st.lists(st.sampled_from(live), min_size=1,
                                   max_size=min(3, len(live)), unique=True)),
                repair=repair,
            )
        else:
            rows = data.draw(st.lists(row_st, min_size=1, max_size=3))
            weights = data.draw(st.lists(weight_st, min_size=len(rows),
                                         max_size=len(rows)))
            session.append(rows, weights=weights, repair=repair)
        blob = encode_session(session.export_state())
        restored = RepairSession.restore(load_session(blob), solutions=cache)
        assert restored.dropped_cache_entries == 0
        result = restored.repair()
        _assert_identical(result, session.repair())
        _assert_identical(result, _scratch_clean(session, fds, {}))


# ---------------------------------------------------------------------------
# The committed fixtures go through the chain
# ---------------------------------------------------------------------------

def _fixture_bytes(version, name):
    with open(os.path.join(DATA, version, name), "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("version,dropped", [("v1", 0), ("v2", "all")])
def test_session_fixture_migrates_and_repairs_like_clean(version, dropped):
    """The v1 state keeps its private entries under the session's scope;
    every entry of the v2 state was solved under the retired cap."""
    state = load_session(_fixture_bytes(version, "session_state.pkl"))
    assert state["version"] == int(version[1:])
    migrated, count = migrate(state)
    assert migrated["version"] == FORMAT_VERSION
    assert count == (len(state["solutions"]) if dropped == "all" else 0)
    session = RepairSession.restore(state)
    assert session.dropped_cache_entries == count
    assert session.export_state()["options"] == migrated["options"]
    _assert_identical(session.repair(), _scratch_clean(
        session, state["fds"], migrated["options"]))


@pytest.mark.parametrize("version,drops_all", [("v1", True), ("v2", False)])
def test_snapshot_fixture_migrates_and_every_session_repairs_like_clean(
    version, drops_all, tmp_path
):
    """A v1 snapshot's shared entries cannot be re-keyed and all go; the
    v2 snapshot's were solved without a cap and all stay."""
    path = tmp_path / SNAPSHOT_NAME
    path.write_bytes(_fixture_bytes(version, "daemon_snapshot.pkl"))
    snapshot = load_snapshot(str(path))
    assert snapshot["version"] == int(version[1:]) and snapshot["solutions"]
    migrated, dropped = migrate(snapshot)
    assert dropped == (len(snapshot["solutions"]) if drops_all else 0)
    assert len(migrated["solutions"]) == len(snapshot["solutions"]) - dropped
    for item in migrated["sessions"]:
        state = load_session(item["blob"])
        session = RepairSession.restore(state)
        options = session.export_state()["options"]
        _assert_identical(session.repair(),
                          _scratch_clean(session, state["fds"], options))


def test_unknown_version_is_unreadable():
    state = RepairSession(Table(SCHEMA, {}), FD_SETS[0]).export_state()
    with pytest.raises(UnreadableState, match="unsupported format version"):
        RepairSession.restore({**state, "version": FORMAT_VERSION + 1})


# ---------------------------------------------------------------------------
# Damaged journals are counted, not silently cut
# ---------------------------------------------------------------------------

def test_damaged_journal_line_counts_every_unreplayed_line(tmp_path):
    path = tmp_path / JOURNAL_NAME
    good = {"seq": 1, "op": "close", "tenant": "t", "session": "s",
            "payload": {}}
    later = {**good, "seq": 3}
    path.write_bytes(
        (json.dumps(good) + "\n").encode()
        + b"\xff\xfe damaged\n\n"
        + (json.dumps(later) + "\n").encode()
    )
    records, last_seq, unreplayed = OpJournal.read_chain(str(path))
    assert [r["seq"] for r in records] == [1] and last_seq == 1
    assert unreplayed == 2
    # The tuple readers keep their shape.
    assert OpJournal.load(str(path)) == (records, 1)
    assert OpJournal.load_chain(str(path)) == (records, 1)


def test_recovery_reports_unreplayed_journal_lines(tmp_path, capsys):
    state = tmp_path / "state"
    state.mkdir()
    opened = {"seq": 1, "op": "open", "tenant": "t", "session": "s",
              "payload": {"schema": list(SCHEMA), "fds": "A -> B"}}
    closed = {"seq": 3, "op": "close", "tenant": "t", "session": "s",
              "payload": {}}
    (state / JOURNAL_NAME).write_text(
        json.dumps(opened) + "\n{torn\n" + json.dumps(closed) + "\n"
    )
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state)))
    try:
        stats = manager.stats()
        assert stats["unreplayed_journal_lines"] == 2
        assert stats["recovered_sessions"] == 1
    finally:
        manager.shutdown()
    assert "journal damaged: 2 line(s)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fdrepair recover on damaged and legacy state dirs
# ---------------------------------------------------------------------------

def _recover(state_dir, *flags):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "recover", "--state-dir",
         str(state_dir), *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_recover_dry_run_reports_an_unreadable_snapshot(tmp_path):
    (tmp_path / SNAPSHOT_NAME).write_bytes(b"\x80\x04damaged")
    (tmp_path / JOURNAL_NAME).write_text("{torn\n")
    text = _recover(tmp_path, "--dry-run")
    assert text.returncode == 0, text.stderr
    assert "snapshot: unreadable (" in text.stdout
    report = json.loads(_recover(tmp_path, "--dry-run", "--json").stdout)
    assert "unreadable" in report["snapshot"]
    assert report["journal"]["unreplayed_lines"] == 1
    # Dry runs touch nothing: the file is still where it was.
    assert (tmp_path / SNAPSHOT_NAME).read_bytes() == b"\x80\x04damaged"


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_recover_dry_run_shows_version_and_migration_drops(version, tmp_path):
    fixture = os.path.join(DATA, version, "daemon_snapshot.pkl")
    shutil.copy(fixture, tmp_path / SNAPSHOT_NAME)
    report = json.loads(_recover(tmp_path, "--dry-run", "--json").stdout)
    snap = report["snapshot"]
    assert snap["version"] == int(version[1:])
    expected = snap["cached_solutions"] if version == "v1" else 0
    assert snap["migration_drops"] == expected
    assert f"format version {version[1:]}" in _recover(
        tmp_path, "--dry-run").stdout
