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
  and journal lines past a damaged record are counted and set aside,
  unless a readable snapshot already covers the damaged segment.
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
from repro.protocol import ProtocolError, encode
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
    read_state_dir,
    write_snapshot,
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
    records, last_seq, unreplayed, damaged, chain = OpJournal.read_chain(
        str(path))
    assert [r["seq"] for r in records] == [1] and last_seq == 1
    assert unreplayed == 2 and damaged == chain == [str(path)]
    # Reading again gives the same records: nothing was changed.
    assert OpJournal.read_chain(str(path))[:2] == (records, 1)


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


# ---------------------------------------------------------------------------
# One reading: the chain found on disk, damage set aside, dry run ≡ recovery
# ---------------------------------------------------------------------------

def _record(seq, op="append", payload=None):
    return json.dumps({"seq": seq, "op": op, "tenant": "t", "session": "s",
                       "payload": payload or {}}) + "\n"


def _opened(seq=1):
    return _record(seq, "open", {"schema": list(SCHEMA), "fds": "A -> B"})


def _appended(seq, key):
    return _record(seq, "append", {"rows": [[key, "x", "p"], [key, "y", "p"]],
                                   "repair": False})


def test_replay_stops_at_the_first_undecodable_line_of_the_whole_chain(
    tmp_path, capsys
):
    """An intact record after damage in a rotated segment is not
    skipped over: it and every later segment's lines are unreplayed,
    not replayed on a state that lacks the damaged op."""
    state = tmp_path / "state"
    state.mkdir()
    journal = state / JOURNAL_NAME
    (state / (JOURNAL_NAME + ".1")).write_text(
        _opened(1) + "garbage{\n" + _appended(3, "b"))
    journal.write_text(_appended(4, "c") + _record(5, "repair"))
    records, last_seq, unreplayed, damaged, _ = OpJournal.read_chain(
        str(journal))
    assert [r["seq"] for r in records] == [1] and last_seq == 1
    assert unreplayed == 4
    assert damaged == [str(journal) + ".1", str(journal)]
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state),
                                          journal_keep=1))
    try:
        stats = manager.stats()
        assert stats["replayed_ops"] == 1
        assert stats["unreplayed_journal_lines"] == 4
        assert manager.run_op(manager.entry("t", "s"), "status",
                              {})["tuples"] == 0
    finally:
        manager.shutdown()


def _crash_with_damaged_line(state):
    """open, append, repair, crash; then ``garbage{`` as line 2."""
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state)))
    manager.open("t", "s", {"schema": list(SCHEMA), "fds": "A -> B"})
    entry = manager.entry("t", "s")
    manager.run_op(entry, "append", {"rows": [["a", "x", "p"],
                                              ["a", "y", "p"]]})
    manager.run_op(entry, "repair", {})
    manager._journal.close()
    journal = state / JOURNAL_NAME
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text(lines[0] + "garbage{\n" + "".join(lines[1:]))
    return lines


def test_a_damaged_journal_is_set_aside_not_truncated(tmp_path):
    state = tmp_path / "state"
    lines = _crash_with_damaged_line(state)
    done = _recover(state, "--json")
    assert done.returncode == 0, done.stderr
    recovery = json.loads(done.stdout)["recovery"]
    moved = str(state / JOURNAL_NAME) + ".damaged"
    assert recovery["unreplayed_journal_lines"] == 3
    assert recovery["damaged_journal"] == [moved]
    assert "set aside as " + moved in done.stderr
    assert (state / JOURNAL_NAME).read_text() == ""
    kept = open(moved).read().splitlines(keepends=True)
    # The intact append and repair records survive the compaction.
    assert kept[2:] == lines[1:] and [json.loads(line)["op"]
                                      for line in kept[2:]] == ["append",
                                                                "repair"]
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state)))
    try:
        assert manager.stats()["damaged_journal"] == []
        assert manager.stats()["recovered_sessions"] == 1
    finally:
        manager.shutdown()


def test_assess_is_journaled_and_replayed(tmp_path):
    """``assess`` is served by a repair, so it moves the session's
    counters: a crash must not take them back."""
    state = str(tmp_path / "state")
    manager = SessionManager(ServerConfig(workers=0, state_dir=state))
    manager.open("t", "s", {"schema": list(SCHEMA), "fds": "A -> B",
                            "rows": [["a", "x", "p"], ["a", "y", "p"]]})
    entry = manager.entry("t", "s")
    for op in ("repair", "assess", "assess"):
        manager.run_op(entry, op, {})
    before = manager.run_op(entry, "status", {})
    assert before["repairs"] == 3
    manager._journal.close()
    recovered = SessionManager(ServerConfig(workers=0, state_dir=state))
    try:
        after = recovered.run_op(recovered.entry("t", "s"), "status", {})
        assert after == before
    finally:
        recovered.shutdown()


def test_old_snapshot_blobs_are_migrated_with_their_snapshot(tmp_path):
    """After recovering a v1 snapshot, no v1 blob survives the
    compaction; a v2 snapshot's blob drops count with its own."""
    state = tmp_path / "state"
    state.mkdir()
    shutil.copy(os.path.join(DATA, "v1", "daemon_snapshot.pkl"),
                state / SNAPSHOT_NAME)
    SessionManager(ServerConfig(workers=0, state_dir=str(state))).shutdown()
    snapshot = load_snapshot(str(state / SNAPSHOT_NAME))
    assert snapshot["sessions"]
    for item in snapshot["sessions"]:
        assert load_session(item["blob"])["version"] == FORMAT_VERSION

    written = pickle.loads(_fixture_bytes("v2", "daemon_snapshot.pkl"))
    capped = _fixture_bytes("v2", "session_state.pkl")
    blob_drops = len(load_session(capped)["solutions"])
    assert blob_drops
    sessions = [{**written["sessions"][0], "blob": capped},
                {**written["sessions"][1], "blob": b"\x80\x04damaged"}]
    with open(state / SNAPSHOT_NAME, "wb") as handle:
        pickle.dump({**written, "sessions": sessions}, handle, protocol=4)
    reading = read_state_dir(str(state))
    assert reading.migration_drops == blob_drops
    # A blob that does not decode stays as written.
    assert reading.snapshot["sessions"][1]["blob"] == b"\x80\x04damaged"
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state)))
    try:
        assert manager.stats()["dropped_cache_entries"] == blob_drops
        name = sessions[1]["name"]
        with pytest.raises(ProtocolError, match="unreadable"):
            manager.run_op(manager.entry(sessions[1]["tenant"], name),
                           "repair", {})
        assert manager.run_op(manager.entry(sessions[0]["tenant"],
                                            sessions[0]["name"]),
                              "repair", {})["tuples"] > 0
    finally:
        manager.shutdown()


def test_a_current_snapshot_blob_is_not_decoded(tmp_path):
    state = tmp_path / "state"
    state.mkdir()
    write_snapshot(str(state / SNAPSHOT_NAME), {
        "journal_seq": 0, "solutions": {},
        "sessions": [{"tenant": "t", "name": "s", "blob": b"opaque"}]})
    reading = read_state_dir(str(state))
    assert reading.snapshot["sessions"][0]["blob"] == b"opaque"
    assert reading.migration_drops == 0


def _crash_tail(state):
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state)))
    manager.open("t", "s", {"schema": list(SCHEMA), "fds": "A -> B"})
    entry = manager.entry("t", "s")
    manager.run_op(entry, "append", {"rows": [["a", "x", "p"]],
                                     "repair": False})
    manager.compact(force=True)
    manager.run_op(entry, "append", {"rows": [["a", "y", "p"]],
                                     "repair": False})
    manager.run_op(entry, "repair", {})
    manager._journal.close()


def _unreadable_snapshot(state):
    state.mkdir()
    (state / JOURNAL_NAME).write_text(_opened(1) + _appended(2, "a"))
    (state / SNAPSHOT_NAME).write_bytes(b"\x80\x04damaged")


def _damaged_rotated_segment(state):
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state),
                                          journal_keep=2))
    manager.open("t", "s", {"schema": list(SCHEMA), "fds": "A -> B"})
    entry = manager.entry("t", "s")
    for key in ("a", "b", "c"):
        manager.run_op(entry, "append", {"rows": [[key, "x", "p"],
                                                  [key, "y", "p"]]})
        manager.compact(force=True)
    manager.run_op(entry, "repair", {})
    manager._journal.close()
    (state / SNAPSHOT_NAME).unlink()
    oldest = state / (JOURNAL_NAME + ".2")
    lines = oldest.read_text().splitlines(keepends=True)
    assert len(lines) == 1  # the second append
    oldest.write_text("garbage{\n" + lines[0])


def _damaged_covered_segment(state):
    """keep=2, a readable snapshot, a torn line in ``.1`` (which the
    snapshot covers) and post-snapshot ops in the live segment."""
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state),
                                          journal_keep=2))
    manager.open("t", "s", {"schema": list(SCHEMA), "fds": "A -> B"})
    entry = manager.entry("t", "s")
    manager.run_op(entry, "append", {"rows": [["a", "x", "p"],
                                              ["a", "y", "p"]]})
    manager.compact(force=True)
    manager.run_op(entry, "append", {"rows": [["b", "x", "p"],
                                              ["b", "y", "p"]]})
    manager.run_op(entry, "repair", {})
    status = manager.run_op(entry, "status", {})
    manager._journal.close()
    with open(state / (JOURNAL_NAME + ".1"), "a") as handle:
        handle.write('{"seq": 3, "op": "app')
    return status


def test_damage_a_readable_snapshot_covers_does_not_stop_replay(tmp_path):
    """A torn line in a rotated segment the snapshot covers (a crash
    mid-append that an earlier boot rotated away) neither stops the
    live tail's replay nor is set aside."""
    state = tmp_path / "state"
    before = _damaged_covered_segment(state)
    journal = str(state / JOURNAL_NAME)
    reading = read_state_dir(str(state))
    assert reading.chain == [journal + ".1", journal]
    assert [r["op"] for r in reading.tail] == ["append", "repair"]
    assert reading.unreplayed == 0 and reading.damaged == []
    # Without the snapshot the same torn line stops the whole chain.
    assert OpJournal.read_chain(journal)[2:4] == (3, [journal + ".1",
                                                      journal])
    manager = SessionManager(ServerConfig(workers=0, state_dir=str(state),
                                          journal_keep=2))
    try:
        stats = manager.stats()
        assert stats["replayed_ops"] == 2
        assert stats["unreplayed_journal_lines"] == 0
        assert stats["damaged_journal"] == []
        assert manager.run_op(manager.entry("t", "s"), "status",
                              {}) == before
    finally:
        manager.shutdown()
    assert not [name for name in os.listdir(state) if "damaged" in name]


def test_a_second_damaged_boot_keeps_the_first_set_aside(tmp_path):
    """Set-aside names are never reused: each damaged boot's journal
    segment and unreadable snapshot go to a fresh name."""
    state = tmp_path / "state"
    _crash_with_damaged_line(state)
    journal = str(state / JOURNAL_NAME)
    snapshot = str(state / SNAPSHOT_NAME)
    moved = []
    for torn in ("garbage{\n", "torn{"):
        with open(journal, "a") as handle:
            handle.write(torn)
        with open(snapshot, "wb") as handle:
            handle.write(b"\x80\x04damaged " + torn.encode())
        manager = SessionManager(ServerConfig(workers=0,
                                              state_dir=str(state)))
        try:
            stats = manager.stats()
            moved.append((stats["damaged_journal"],
                          stats["unreadable_snapshot"]["path"]))
        finally:
            manager.shutdown()
    assert moved == [([journal + ".damaged"], snapshot + ".unreadable"),
                     ([journal + ".damaged.1"], snapshot + ".unreadable.1")]
    first = open(journal + ".damaged").read()
    assert [json.loads(line)["op"] for line in first.splitlines()
            if line.startswith("{\"")] == ["open", "append", "repair"]
    assert open(journal + ".damaged.1").read() == "torn{"
    with open(snapshot + ".unreadable", "rb") as handle:
        assert handle.read().endswith(b"garbage{\n")
    with open(snapshot + ".unreadable.1", "rb") as handle:
        assert handle.read().endswith(b"torn{")


def _fixture_dir(version):
    def build(state):
        state.mkdir()
        shutil.copy(os.path.join(DATA, version, "daemon_snapshot.pkl"),
                    state / SNAPSHOT_NAME)
    return build


@pytest.mark.parametrize("build", [
    _crash_tail, _unreadable_snapshot, _crash_with_damaged_line,
    _damaged_rotated_segment, _damaged_covered_segment, _fixture_dir("v1"),
    _fixture_dir("v2"),
], ids=["crash-tail", "unreadable-snapshot", "damaged-live-line",
        "damaged-rotated-segment", "damaged-covered-segment", "v1", "v2"])
def test_dry_run_and_recovery_agree(build, tmp_path):
    state = tmp_path / "state"
    build(state)
    dry = json.loads(_recover(state, "--dry-run", "--json").stdout)
    done = _recover(state, "--json")
    real = json.loads(done.stdout)
    recovery = real["recovery"]
    assert dry["replay"]["ops"] == recovery["replayed_ops"]
    assert (dry["journal"]["unreplayed_lines"]
            == recovery["unreplayed_journal_lines"])
    snap = dry["snapshot"] or {}
    assert snap.get("migration_drops", 0) == recovery["dropped_cache_entries"]
    if not {"open", "close"} & set(dry["replay"]["by_op"]):
        assert snap.get("sessions", 0) == recovery["recovered_sessions"]
    # Recovery reports the reading it acted on: the dry run's.
    assert real["journal"] == dry["journal"]
    assert real["replay"] == dry["replay"]
    assert bool(recovery["damaged_journal"]) == bool(
        dry["journal"]["unreplayed_lines"])


def test_recover_has_no_journal_keep_flag(tmp_path):
    done = _recover(tmp_path, "--dry-run", "--journal-keep", "1")
    assert done.returncode == 2
    assert "unrecognized arguments: --journal-keep" in done.stderr
