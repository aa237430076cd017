"""Saved state and crash-safe daemon state: the session-state and
snapshot format, session stores, the op journal, snapshots.

This module alone knows how a session state and a daemon snapshot are
written, which format versions exist, and how an old one becomes the
current one:

Saved state
    Both are pickled dicts stamped with :data:`FORMAT_VERSION`, encoded
    by :func:`encode_session` / :func:`write_snapshot` and decoded by
    :func:`load_session` / :func:`load_snapshot` through one restricted
    unpickler.  It resolves only the globals saved state names (``FD``,
    ``FDSet``, ``SolvePolicy`` and the component-solve record, also
    under its version-1 name); any other global is refused as
    :class:`UnreadableState`, and nothing is imported or called, so a
    file planted in a state dir cannot run code in the daemon.
    :func:`migrate` lifts either kind from any older version through one
    chain of per-step functions, counting the cache entries a step has
    to drop.  Cached component solves may cross versions at all because
    an optimal S-repair of a conflict component depends only on the
    component's rows and weights.

The daemon's durability story has three cooperating pieces, all owned
by :class:`~repro.server.SessionManager` and rooted at one
``--state-dir``:

Session stores
    Where *frozen* (LRU-evicted) session blobs live.  Without a state
    dir they stay in a dict on the heap: eviction trades heap for
    encoding work, and a daemon crash loses everything.  With one,
    :class:`DiskSessionStore` spools frozen sessions to files, so
    eviction actually releases memory and survives a crash between
    snapshots.

``OpJournal``
    An append-only JSONL log of every op that changes a session
    (``open``/``append``/``delete``/``repair``/``assess``/``close`` —
    see :data:`repro.protocol.JOURNALED_OPS`), written **after** the op
    commits and before the client is acknowledged.  Writes are flushed
    to the OS per record (a killed *process* loses nothing) and
    ``fsync``\\ ed every *fsync_every* records (bounding what a killed
    *machine* can lose).  Because sessions are deterministic — row ids
    are allocated deterministically and component repairs are pure
    functions of content — replaying the journal rebuilds every
    session **byte-identically**: the journal stores what was *asked*,
    never solver output.  The chain is whatever ``journal.jsonl.1`` …
    ``.N`` (consecutive) plus the live segment exist on disk.  Replay
    stops at the first undecodable line (a torn tail, or damage) of the
    whole chain, or, past a readable snapshot, of the live segment and
    any segment holding a record the snapshot does not cover; every
    line from it on, in any segment, counts as unreplayed.

Snapshots
    Replay cost is bounded by periodic *snapshot compaction*: when the
    journal has grown by ``snapshot_every`` records and no session is
    mid-op, the manager writes every session's encoded state into
    ``snapshot.pkl`` (atomic tmp + rename), stamps it with the journal
    sequence it covers, and truncates the journal.  Recovery loads the
    snapshot, replays the journal tail past the stamped sequence, and
    compacts again — so repeated crashes never replay the same tail
    twice.  The shared solution cache rides in the snapshot too: a
    recovered daemon's first repairs are cache hits, which is what
    makes warm recovery beat a cold restart.

Reading a state dir
    :func:`read_state_dir` is the one reader: a pure read returning the
    snapshot migrated to the current format (an old snapshot's session
    blobs too) or why it cannot be read, and the journal chain with its
    replay tail and damage.  The daemon's recovery acts on that value
    and ``fdrepair recover`` prints it, so a dry run says what recovery
    does.  Recovery sets an unreadable snapshot aside as
    ``<name>.unreadable`` and every journal segment from the first
    damaged one on as ``<segment>.damaged`` (or, when that is taken, the
    first free ``.unreadable.K`` / ``.damaged.K``), and reports both:
    nothing it cannot use is overwritten, by this boot or a later one.

Fault-injection sites ``journal.append.before`` / ``journal.append.after``
(:mod:`repro.faults`) bracket the journal write — the two crash
positions recovery must distinguish (op lost vs. op preserved).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from . import faults as _faults
from .core.decompose import SolvePolicy, resolve_plan_defaults
from .core.fd import FD, FDSet
from .pipeline import _ComponentSolve

__all__ = [
    "FORMAT_VERSION",
    "UnreadableState",
    "encode_session",
    "load_session",
    "format_version",
    "migrate",
    "DiskSessionStore",
    "OpJournal",
    "load_snapshot",
    "write_snapshot",
    "StateDirReading",
    "read_state_dir",
    "JOURNAL_NAME",
    "SNAPSHOT_NAME",
    "SPOOL_DIR",
]

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.pkl"
SPOOL_DIR = "spool"

#: The format version of every session state and snapshot written.
FORMAT_VERSION = 3


# ---------------------------------------------------------------------------
# Saved state: the one decoder and the migration chain
# ---------------------------------------------------------------------------

class UnreadableState(ValueError):
    """Saved state that does not decode, or of an unknown version."""


#: Globals version 1 pickled under a name that is gone.
_LEGACY_GLOBALS = {("repro.session", "_CachedSolve"): _ComponentSolve}
#: Every global saved state may name: nothing else is imported or called.
_ALLOWED_GLOBALS = {
    ("repro.core.fd", "FD"): FD,
    ("repro.core.fd", "FDSet"): FDSet,
    ("repro.core.decompose", "SolvePolicy"): SolvePolicy,
    ("repro.pipeline", "_ComponentSolve"): _ComponentSolve,
    **_LEGACY_GLOBALS,
}


def legacy_global(module: str, name: str):
    """*module*'s *name* as version 1 pickled it (a module ``__getattr__``
    hook, so the stock unpickler reads old states too)."""
    if (module, name) not in _LEGACY_GLOBALS:
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return _LEGACY_GLOBALS[module, name]


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) not in _ALLOWED_GLOBALS:
            raise pickle.UnpicklingError(f"global {module}.{name} refused")
        return _ALLOWED_GLOBALS[module, name]


def encode_session(state: Mapping[str, object]) -> bytes:
    """The one encoder of an ``export_state`` dict."""
    return pickle.dumps(state, protocol=4)


def load_session(blob: bytes) -> Dict[str, object]:
    """Decode saved state of any version — the one decoder, behind
    :func:`load_snapshot` too; raises :class:`UnreadableState`."""
    try:
        doc = _Unpickler(io.BytesIO(blob)).load()
    except Exception as exc:  # untrusted bytes: every failure is damage
        raise UnreadableState(str(exc) or type(exc).__name__) from None
    if not isinstance(doc, dict):
        raise UnreadableState(f"a {type(doc).__name__}, not saved state")
    return doc


#: The retired per-solve cap, which states written while it existed carry
#: in their options and in every pickled policy's ``__dict__``.
_RETIRED_CAP = "per_component_budget_s"
_RETIRED_OPTIONS = (_RETIRED_CAP, "parallel", "max_cache_entries",
                    "pool_timeout")


def _scope_entries(doc: Dict[str, object]) -> int:
    # Version 1 → 2: a session state's private entries take the session's
    # own (Δ, schema, SolvePolicy) scope.  Entries solved under a cap,
    # and a snapshot's (keyed without the exact threshold), cannot.
    entries, options = doc.get("solutions") or {}, doc.get("options", {})
    if "journal_seq" in doc or options.get(_RETIRED_CAP) is not None:
        doc["solutions"] = {}
        return len(entries)
    policy = resolve_plan_defaults(**{
        k: v for k, v in options.items() if k not in _RETIRED_OPTIONS})
    scope = (doc["fds"], tuple(doc["schema"]), policy)
    doc["solutions"] = {(scope,) + k: e for k, e in entries.items()}
    return 0


def _drop_capped(doc: Dict[str, object]) -> int:
    # Version 2 → 3: ``==`` and ``hash`` ignore the cap a policy was
    # pickled with, so capped entries would serve their fallbacks to
    # uncapped scopes: they go, as do the retired options.
    entries = doc.get("solutions") or {}
    doc["solutions"] = {k: e for k, e in entries.items()
                        if vars(k[0][2]).get(_RETIRED_CAP) is None}
    if "options" in doc:
        doc["options"] = {k: v for k, v in doc["options"].items()
                          if k not in _RETIRED_OPTIONS}
    return len(entries) - len(doc["solutions"])


#: ``_MIGRATIONS[v - 1]`` turns version *v* into *v* + 1.
_MIGRATIONS = (_scope_entries, _drop_capped)


def format_version(doc: Mapping[str, object]) -> object:
    """The format version *doc* was written in (version 1 wrote none)."""
    return doc.get("version", 1)


def migrate(doc: Mapping[str, object]) -> Tuple[Mapping[str, object], int]:
    """A session state or snapshot in the current format, and how many
    cache entries the steps from its version dropped (a current one is
    returned as is; an older one is copied, never mutated)."""
    version = format_version(doc)
    if version == FORMAT_VERSION:
        return doc, 0
    if type(version) is not int or not 1 <= version < FORMAT_VERSION:
        raise UnreadableState(f"unsupported format version {version!r}")
    doc, dropped = dict(doc), 0
    try:
        for step in _MIGRATIONS[version - 1:]:
            dropped += step(doc)
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise UnreadableState(f"version {version}: {exc!r}") from None
    doc["version"] = FORMAT_VERSION
    return doc, dropped


# ---------------------------------------------------------------------------
# Session stores (frozen-session blobs)
# ---------------------------------------------------------------------------

class DiskSessionStore:
    """Frozen blobs spooled to one file per session under the state
    dir, behind the part of the dict interface the manager uses (a
    daemon without a state dir keeps them in a plain dict).  Filenames
    are content-independent digests of the session key, so arbitrary
    tenant/session names never meet the filesystem."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> str:
        # Imported here: hashlib maps OpenSSL (~3 MiB of RSS), which
        # only a daemon with a state dir needs.
        import hashlib

        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
        return os.path.join(self.directory, f"{digest}.pkl")

    def __setitem__(self, key: str, blob: bytes) -> None:
        path = self._path(key)
        with self._lock:
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)

    def get(self, key: str) -> Optional[bytes]:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def pop(self, key: str, _default: None = None) -> None:
        with contextlib.suppress(OSError):
            os.remove(self._path(key))

    def clear(self) -> None:
        with self._lock:
            try:
                names = os.listdir(self.directory)
            except OSError:
                return
            for name in names:
                if name.endswith(".pkl") or name.endswith(".tmp"):
                    with contextlib.suppress(OSError):
                        os.remove(os.path.join(self.directory, name))


# ---------------------------------------------------------------------------
# The op journal
# ---------------------------------------------------------------------------

class OpJournal:
    """Append-only, fsync-batched JSONL op log with atomic compaction.

    ``append`` assigns the global sequence number under the journal
    lock, so the on-disk order *is* the execution order the manager
    acknowledged.  ``compact`` atomically replaces the snapshot and
    truncates the log; the caller supplies the snapshot payload and
    must guarantee no concurrent appends (the manager only compacts
    when every session lock is free).

    With ``keep > 0`` compaction *rotates* instead of truncating: the
    closed segment moves to ``<path>.1`` (older segments shifting to
    ``.2`` … ``.keep``, the oldest dropped), so the last *keep*
    pre-snapshot epochs stay inspectable and a recovery whose snapshot
    is lost or unreadable can replay the whole chain found on disk
    (:meth:`read_chain`) instead of only the live tail.  *max_bytes*
    bounds the live segment: :attr:`oversized` turns true once the file
    passes it, and the manager treats that as a compaction trigger just
    like the op-count threshold.
    """

    def __init__(self, path: str, *, fsync_every: int = 8,
                 start_seq: int = 0, faults=None,
                 max_bytes: Optional[int] = None, keep: int = 0) -> None:
        self.path = path
        self.fsync_every = max(1, int(fsync_every))
        self.max_bytes = None if not max_bytes else max(1, int(max_bytes))
        self.keep = max(0, int(keep))
        self._faults = _faults.resolve(faults)
        self._lock = threading.Lock()
        self._handle: Optional[io.TextIOWrapper] = None
        self.seq = int(start_seq)
        self.appends = 0
        self.fsyncs = 0
        self.rotations = 0
        self.appends_since_snapshot = 0
        try:
            self.bytes = os.path.getsize(path)
        except OSError:
            self.bytes = 0
        self._open_handle()

    def _open_handle(self) -> None:
        self._handle = open(self.path, "a", encoding="utf-8")

    @property
    def oversized(self) -> bool:
        """True once the live segment passed *max_bytes* — the manager's
        size-based compaction trigger."""
        return self.max_bytes is not None and self.bytes >= self.max_bytes

    def append(self, op: str, tenant: str, session: str,
               payload: Mapping[str, object]) -> int:
        """Durably log one acknowledged op; returns its sequence."""
        with self._lock:
            self.seq += 1
            seq = self.seq
            record = {"seq": seq, "op": op, "tenant": tenant,
                      "session": session, "payload": dict(payload or {})}
            self._faults.fire("journal.append.before", op=op)
            line = json.dumps(record, default=str) + "\n"
            self._handle.write(line)
            # Flush every record (survives a killed process); fsync in
            # batches (bounds what a killed machine loses).
            self._handle.flush()
            self.bytes += len(line.encode("utf-8"))
            self.appends += 1
            self.appends_since_snapshot += 1
            if self.appends % self.fsync_every == 0:
                os.fsync(self._handle.fileno())
                self.fsyncs += 1
            self._faults.fire("journal.append.after", op=op)
        return seq

    def compact(self, snapshot_path: str, snapshot: Dict[str, object]) -> None:
        """Atomically persist *snapshot* (stamped by the caller with
        the current ``seq``) and truncate the journal."""
        with self._lock:
            write_snapshot(snapshot_path, snapshot)
            self._handle.close()
            # Segments past the retention window are dropped, also any
            # an earlier run with a longer window left: the chain found
            # on disk never holds a stale epoch.
            stale = max(self.keep, 1)
            while True:
                try:
                    os.remove(f"{self.path}.{stale}")
                except OSError:
                    break
                stale += 1
            if self.keep > 0:
                # Rotate: the closed segment becomes .1, elders shift up.
                for i in range(self.keep - 1, 0, -1):
                    with contextlib.suppress(OSError):
                        os.replace(f"{self.path}.{i}", f"{self.path}.{i + 1}")
                with contextlib.suppress(OSError):
                    os.replace(self.path, f"{self.path}.1")
                    self.rotations += 1
            self._handle = open(self.path, "w", encoding="utf-8")
            self.bytes = 0
            self.appends_since_snapshot = 0

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                    self.fsyncs += 1
                except (OSError, ValueError):
                    pass
                self._handle.close()
                self._handle = None

    @staticmethod
    def chain_paths(path: str) -> List[str]:
        """The journal chain on disk, oldest first: the rotated segments
        ``<path>.N`` … ``<path>.1`` numbered consecutively from 1, then
        the live segment if it exists."""
        count = 0
        while os.path.exists(f"{path}.{count + 1}"):
            count += 1
        paths = [f"{path}.{i}" for i in range(count, 0, -1)]
        return paths + [path] if os.path.exists(path) else paths

    @staticmethod
    def read_chain(
        path: str, snapshot_seq: Optional[int] = None,
    ) -> Tuple[List[Dict[str, object]], int, int, List[str], List[str]]:
        """Read the chain found on disk, oldest first: ``(records,
        last_seq, unreplayed, damaged, chain)``.

        A record whose ``seq`` does not pass the last one read is
        skipped (a stale or re-used segment cannot replay an op twice).
        A line that is not a UTF-8 JSON record with an integer ``seq``
        is a torn tail (a crash mid-append) or damage.  Replay stops at
        the first such line in the part of the chain that can hold
        records to replay: nothing past it can be replayed in order, in
        its segment or a later one, so *unreplayed* counts the non-blank
        lines from it on and *damaged* lists the segments from the one
        holding it on.  That part is the whole chain, unless a readable
        snapshot covers the records up to *snapshot_seq*.  A snapshot is
        written before the segment it covers rotates, so then the part
        starts at the live segment, or at the first one holding a record
        past *snapshot_seq*; a bad line before it is skipped."""
        chain = OpJournal.chain_paths(path)
        segments = [OpJournal._segment_lines(segment) for segment in chain]
        start = 0
        if snapshot_seq is not None:
            start = next(
                (index for index, lines in enumerate(segments)
                 if chain[index] == path
                 or any(r is not None and r["seq"] > snapshot_seq
                        for r in lines)),
                len(chain))
        records: List[Dict[str, object]] = []
        last_seq = 0
        unreplayed = 0
        damaged: List[str] = []
        for index, lines in enumerate(segments):
            for record in lines:
                if record is None and not damaged and index >= start:
                    damaged = chain[index:]
                if damaged:
                    unreplayed += 1
                elif record is not None and record["seq"] > last_seq:
                    records.append(record)
                    last_seq = record["seq"]
        return records, last_seq, unreplayed, damaged, chain

    @staticmethod
    def _segment_lines(segment: str) -> List[Optional[Dict[str, object]]]:
        """A segment's non-blank lines, each a record or ``None`` for a
        line that is not a UTF-8 JSON record with an integer ``seq``; no
        lines when the segment cannot be opened."""
        try:
            with open(segment, "rb") as handle:
                raw = [line.strip() for line in handle]
        except OSError:
            return []
        lines: List[Optional[Dict[str, object]]] = []
        for line in filter(None, raw):
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:
                record = None
            lines.append(record if isinstance(record, dict)
                         and isinstance(record.get("seq"), int) else None)
        return lines


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def write_snapshot(path: str, snapshot: Dict[str, object]) -> None:
    """Atomic, version-stamped snapshot write (tmp + fsync + rename) —
    the one snapshot writer, behind :meth:`OpJournal.compact`."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump({**snapshot, "version": FORMAT_VERSION}, handle,
                    protocol=4)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _is_session_item(item: object) -> bool:
    return (isinstance(item, dict) and isinstance(item.get("tenant"), str)
            and isinstance(item.get("name"), str)
            and isinstance(item.get("blob"), bytes))


def load_snapshot(path: str) -> Optional[Dict[str, object]]:
    """The snapshot at *path* as written, of any version (:func:`migrate`
    brings it current); ``None`` when there is none.  Raises
    :class:`UnreadableState` when the file cannot be read or decoded, or
    is not shaped like a snapshot: an integer journal sequence, a list
    of ``{tenant, name, blob}`` session items, a cache dict."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise UnreadableState(str(exc)) from None
    snapshot = load_session(blob)
    sessions = snapshot.get("sessions", [])
    if not (isinstance(snapshot.get("journal_seq"), int)
            and isinstance(sessions, list)
            and all(_is_session_item(item) for item in sessions)
            and isinstance(snapshot.get("solutions", {}), dict)):
        raise UnreadableState("not shaped like a daemon snapshot")
    return snapshot


def _migrate_snapshot(
    snapshot: Mapping[str, object],
) -> Tuple[Mapping[str, object], int]:
    """:func:`migrate` for a snapshot, whose session blobs, when it is
    older than :data:`FORMAT_VERSION`, are brought current too, so no
    old blob survives the next compaction.  A blob that does not decode
    stays as it is: it fails only its own session's ops."""
    version = format_version(snapshot)
    snapshot, dropped = migrate(snapshot)
    if version == FORMAT_VERSION:
        return snapshot, dropped
    sessions = []
    for item in snapshot["sessions"]:
        try:
            state, blob_dropped = migrate(load_session(item["blob"]))
        except UnreadableState:
            sessions.append(item)
            continue
        dropped += blob_dropped
        sessions.append({**item, "blob": encode_session(state)})
    return {**snapshot, "sessions": sessions}, dropped


@dataclass(frozen=True)
class StateDirReading:
    """What :func:`read_state_dir` found in a daemon state dir.

    ``snapshot`` is the snapshot in the current format, ``None`` when
    there is none or it is unreadable (``unreadable`` says why);
    ``version`` is its format version as written, ``migration_drops``
    the cache entries migrating it drops (its session blobs' included),
    ``cached_solutions`` its shared cache entries as written and
    ``age_s`` its age in seconds.  ``chain`` lists the journal segments
    oldest first; ``records`` holds every readable record and ``tail``
    those past ``journal_seq`` (0 without a snapshot), in replay order.
    ``unreplayed`` counts the lines from the first undecodable one
    that can hold records to replay on, and ``damaged`` lists the
    segments from the one holding it on (:meth:`OpJournal.read_chain`)."""

    snapshot_path: str
    journal_path: str
    snapshot: Optional[Mapping[str, object]]
    unreadable: Optional[str]
    version: object
    migration_drops: int
    cached_solutions: int
    age_s: Optional[float]
    journal_seq: int
    chain: List[str]
    records: List[Dict[str, object]]
    tail: List[Dict[str, object]]
    last_seq: int
    unreplayed: int
    damaged: List[str]


def read_state_dir(state_dir: str) -> StateDirReading:
    """Read a daemon state dir, changing no file: its snapshot, migrated
    to the current format (or why it cannot be read), and its journal
    chain.  The daemon's recovery acts on this reading, and ``fdrepair
    recover`` prints it."""
    snapshot_path = os.path.join(state_dir, SNAPSHOT_NAME)
    journal_path = os.path.join(state_dir, JOURNAL_NAME)
    snapshot, unreadable, version, drops, cached, age_s = (
        None, None, None, 0, 0, None)
    try:
        written = load_snapshot(snapshot_path)
        if written is not None:
            snapshot, drops = _migrate_snapshot(written)
            version = format_version(written)
            cached = len(written.get("solutions") or ())
            with contextlib.suppress(OSError):
                age_s = round(max(
                    0.0, time.time() - os.path.getmtime(snapshot_path)), 3)
    except UnreadableState as exc:
        unreadable = str(exc)
    covered = None if snapshot is None else snapshot["journal_seq"]
    records, last_seq, unreplayed, damaged, chain = OpJournal.read_chain(
        journal_path, covered)
    journal_seq = covered or 0
    return StateDirReading(
        snapshot_path, journal_path, snapshot, unreadable, version, drops,
        cached, age_s, journal_seq, chain, records,
        [r for r in records if r["seq"] > journal_seq], last_seq,
        unreplayed, damaged)
