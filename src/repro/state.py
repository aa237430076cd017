"""Crash-safe daemon state: session stores, the op journal, snapshots.

The daemon's durability story has three cooperating pieces, all owned
by :class:`~repro.server.SessionManager` and rooted at one
``--state-dir``:

``SessionStore``
    Where *frozen* (LRU-evicted) session blobs live.  The default
    :class:`MemorySessionStore` keeps PR-6 semantics — eviction trades
    heap for pickling work but a daemon crash loses everything.  With a
    state dir, :class:`DiskSessionStore` spools frozen sessions to
    files, so eviction actually releases memory and survives a crash
    between snapshots.

``OpJournal``
    An append-only JSONL log of every *successful mutating* op
    (``open``/``append``/``delete``/``repair``/``close`` — see
    :data:`repro.protocol.JOURNALED_OPS`), written **after** the op
    commits and before the client is acknowledged.  Writes are flushed
    to the OS per record (a killed *process* loses nothing) and
    ``fsync``\\ ed every *fsync_every* records (bounding what a killed
    *machine* can lose).  Because sessions are deterministic — row ids
    are allocated deterministically and component repairs are pure
    functions of content — replaying the journal rebuilds every
    session **byte-identically**: the journal stores what was *asked*,
    never solver output.

Snapshots
    Replay cost is bounded by periodic *snapshot compaction*: when the
    journal has grown by ``snapshot_every`` records and no session is
    mid-op, the manager pickles every session's ``export_state`` into
    ``snapshot.pkl`` (atomic tmp + rename), stamps it with the journal
    sequence it covers, and truncates the journal.  Recovery loads the
    snapshot, replays the journal tail past the stamped sequence, and
    compacts again — so repeated crashes never replay the same tail
    twice.  The shared solution cache rides in the snapshot too: a
    recovered daemon's first repairs are cache hits, which is what
    makes warm recovery beat a cold restart.

Fault-injection sites ``journal.append.before`` / ``journal.append.after``
(:mod:`repro.faults`) bracket the journal write — the two crash
positions recovery must distinguish (op lost vs. op preserved).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from . import faults as _faults

__all__ = [
    "SessionStore",
    "MemorySessionStore",
    "DiskSessionStore",
    "OpJournal",
    "load_snapshot",
    "write_snapshot",
    "JOURNAL_NAME",
    "SNAPSHOT_NAME",
    "SPOOL_DIR",
]

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.pkl"
SPOOL_DIR = "spool"


# ---------------------------------------------------------------------------
# Session stores (frozen-session blobs)
# ---------------------------------------------------------------------------

class SessionStore:
    """Keyed blob storage for frozen session state.

    ``put`` returns the stored size in bytes (the manager's accounting
    charge).  Implementations must be thread-safe: freezes run on the
    event loop while rehydrations run on executor threads.
    """

    def put(self, key: str, blob: bytes) -> int:
        raise NotImplementedError

    def get(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def pop(self, key: str) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class MemorySessionStore(SessionStore):
    """Frozen blobs held on the heap — the stateless-daemon default."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blobs: Dict[str, bytes] = {}

    def put(self, key: str, blob: bytes) -> int:
        with self._lock:
            self._blobs[key] = blob
        return len(blob)

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            return self._blobs.get(key)

    def pop(self, key: str) -> None:
        with self._lock:
            self._blobs.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._blobs.clear()


class DiskSessionStore(SessionStore):
    """Frozen blobs spooled to one file per session under the state
    dir.  Filenames are content-independent digests of the session key,
    so arbitrary tenant/session names never meet the filesystem."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
        return os.path.join(self.directory, f"{digest}.pkl")

    def put(self, key: str, blob: bytes) -> int:
        path = self._path(key)
        with self._lock:
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        return len(blob)

    def get(self, key: str) -> Optional[bytes]:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def pop(self, key: str) -> None:
        try:
            os.remove(self._path(key))
        except OSError:
            pass

    def clear(self) -> None:
        with self._lock:
            try:
                names = os.listdir(self.directory)
            except OSError:
                return
            for name in names:
                if name.endswith(".pkl") or name.endswith(".tmp"):
                    try:
                        os.remove(os.path.join(self.directory, name))
                    except OSError:
                        pass


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
    is lost or unreadable can replay the whole retained chain
    (:meth:`load_chain`) instead of only the live tail.  *max_bytes*
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

    def sync(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self.fsyncs += 1

    def compact(self, snapshot_path: str, snapshot: Dict[str, object]) -> None:
        """Atomically persist *snapshot* (stamped by the caller with
        the current ``seq``) and truncate the journal."""
        with self._lock:
            write_snapshot(snapshot_path, snapshot)
            self._handle.close()
            if self.keep > 0:
                # Rotate: the closed segment becomes .1, elders shift up,
                # anything past the retention window is dropped.
                try:
                    os.remove(f"{self.path}.{self.keep}")
                except OSError:
                    pass
                for i in range(self.keep - 1, 0, -1):
                    try:
                        os.replace(f"{self.path}.{i}", f"{self.path}.{i + 1}")
                    except OSError:
                        pass
                try:
                    os.replace(self.path, f"{self.path}.1")
                    self.rotations += 1
                except OSError:
                    pass
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
    def load(path: str) -> Tuple[List[Dict[str, object]], int]:
        """Read every intact record from a journal file.

        Tolerates a torn final line (a crash mid-write): reading stops
        at the first undecodable line.  Returns ``(records, last_seq)``.
        """
        records: List[Dict[str, object]] = []
        last_seq = 0
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError:
            return records, last_seq
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    break  # torn tail from a crash mid-append
                if not isinstance(record, dict) or "seq" not in record:
                    break
                records.append(record)
                last_seq = max(last_seq, int(record["seq"]))
        return records, last_seq

    @staticmethod
    def chain_paths(path: str, keep: int) -> List[str]:
        """The retained journal chain oldest-first: ``<path>.keep`` …
        ``<path>.1``, then the live segment.  Only existing files."""
        paths = [
            f"{path}.{i}" for i in range(max(0, int(keep)), 0, -1)
        ]
        paths.append(path)
        return [p for p in paths if os.path.exists(p)]

    @staticmethod
    def load_chain(path: str, keep: int = 0) -> Tuple[List[Dict[str, object]], int]:
        """Read the whole retained chain oldest-first with a monotonic
        sequence guard (a stale or re-used segment cannot replay an op
        twice).  ``keep=0`` degrades to :meth:`load` on the live file."""
        records: List[Dict[str, object]] = []
        last_seq = 0
        for segment in OpJournal.chain_paths(path, keep):
            seg_records, seg_last = OpJournal.load(segment)
            for record in seg_records:
                if int(record["seq"]) > last_seq:
                    records.append(record)
            last_seq = max(last_seq, seg_last)
        return records, last_seq


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def write_snapshot(path: str, snapshot: Dict[str, object]) -> None:
    """Atomic snapshot write (tmp + fsync + rename) — the one snapshot
    writer, behind :meth:`OpJournal.compact`."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(snapshot, handle, protocol=4)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_snapshot(path: str) -> Optional[Dict[str, object]]:
    """Load a snapshot written by :meth:`OpJournal.compact`; ``None``
    when absent or unreadable (recovery then replays the full journal)."""
    try:
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None
    if not isinstance(snapshot, dict) or "journal_seq" not in snapshot:
        return None
    return snapshot
