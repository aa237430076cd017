"""``repro.server``: the multi-tenant streaming repair daemon.

The paper's component-locality result makes repair a *service*: a delta
re-solves only the conflict components it touches, and component
repairs are content-addressed, so many concurrent ``(tenant, table, Δ)``
streams can share one warm :class:`~repro.exec.PersistentWorkerPool`
and one :class:`~repro.session.SolutionCache` — one tenant's solve is
every co-tenant's cache hit wherever their component content coincides.

The module splits along the engine-state / process-lifecycle seam the
session layer exposes:

:class:`SessionManager`
    Owns engine state: the registry of sessions, per-tenant memory
    accounting, admission control, and LRU eviction + rehydration.
    Eviction freezes a session to its
    :meth:`~repro.session.RepairSession.export_state`, encoded by
    :mod:`repro.state` (the
    component cache is content-addressed, so a shared-cache session
    loses nothing by being frozen); rehydration rebuilds it attached to
    the *same* shared pool and cache, byte-identical to a session that
    was never evicted.  The manager is transport-free and synchronous —
    tests drive it directly.

:class:`RepairServer`
    Owns process lifecycle: the asyncio event loop, TCP/stdio
    transports, the executor threads solver work runs on, and clean
    shutdown.  Requests speak the JSONL protocol of
    :mod:`repro.protocol` (the ``fdrepair stream`` op vocabulary plus
    session addressing).  Both transports share one line reader and
    one request loop; they differ only in how bytes arrive and replies
    leave.  Every request gets exactly one reply, and its op is counted
    in ``stats`` and ``--trace`` before that reply is sent.  Ops for
    one session execute strictly in arrival order behind that session's
    lock; ops for different sessions interleave freely — a slow exact
    solve ships to a pool worker process and only its own session waits
    on it, so one tenant's hard component never blocks another's
    cache-hit repair.

Locking discipline (load-bearing): per-session ``asyncio.Lock``\\ s are
acquired only on the event-loop thread, and eviction runs only on the
event-loop thread as straight-line synchronous code — so "is this
session mid-op?" (``lock.locked()``) cannot race with freezing it.  The
registry itself takes a ``threading.Lock`` because ``open`` and op
execution run on executor threads.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter as _perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

from . import faults as _faults
from . import obs as _obs
from .core.fd import parse_fd_set
from .core.table import Table
from .graphs.vertex_cover import ExactBudgetExceeded
from .protocol import (
    JOURNALED_OPS,
    ProtocolError,
    Request,
    apply_session_op,
    decode_line,
    encode,
)
from .session import _OPTIONS, RepairSession, SolutionCache
from .state import (
    SPOOL_DIR,
    DiskSessionStore,
    OpJournal,
    StateDirReading,
    UnreadableState,
    encode_session,
    load_session,
    read_state_dir,
)

__all__ = ["MAX_LINE_BYTES", "RepairServer", "ServerConfig", "SessionManager"]

#: Longest request line the daemon reads, in bytes, on TCP and stdio
#: alike.  A longer line is consumed whole and answered with a protocol
#: error; the connection stays open.
MAX_LINE_BYTES = 1 << 20

#: What the line reader yields for a line over :data:`MAX_LINE_BYTES`.
_OVERLONG = object()


async def _read_request_line(reader: asyncio.StreamReader):
    """The next request line from *reader* (a TCP connection's reader,
    or the one :meth:`RepairServer.serve_stdio` feeds from fd 0):
    bytes, ``None`` at EOF, or :data:`_OVERLONG` once an over-long line
    has been consumed."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial or None
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
            continue
        except asyncio.IncompleteReadError:
            pass
        return _OVERLONG


@dataclass
class ServerConfig:
    """Tenancy and lifecycle knobs for one daemon.  Every session it
    opens is handed the shared worker pool (``workers``; a batch still
    unsolved after 600 s re-solves in process) and the shared solution
    cache (``cache_entries``)."""

    #: Total sessions open across all tenants (resident + frozen).
    max_sessions: int = 256
    #: Sessions kept live in memory; beyond this the least-recently-used
    #: unlocked sessions are frozen to their encoded state.
    max_resident: int = 64
    #: Sessions one tenant may hold open.
    max_tenant_sessions: int = 32
    #: Estimated bytes one tenant may hold (live + frozen); opens that
    #: would exceed it are refused.  ``None`` disables the bound.
    max_tenant_bytes: Optional[int] = 256 * 1024 * 1024
    #: Warm worker processes shared by every session (``--parallel``;
    #: 0 = solve in-process on the executor threads).
    workers: int = 1
    #: Bound on the shared content-addressed solution cache.
    cache_entries: Optional[int] = 200_000
    #: Executor threads op execution runs on (per-session sequencing
    #: means a session occupies at most one at a time).
    executor_threads: int = 8
    #: Optional per-solve deadline on the shared pool: a solve past it
    #: is sent again with backoff, and its worker is failed over after
    #: the pool's retries.
    solve_timeout_s: Optional[float] = None
    #: Directory for crash-safe state (op journal, snapshots, frozen
    #: session spool).  ``None`` keeps the daemon stateless: eviction
    #: freezes to memory and a crash loses all sessions.
    state_dir: Optional[str] = None
    #: Journal records between ``fsync`` calls (writes are flushed per
    #: record regardless, so only a machine crash can lose a batch).
    journal_fsync_every: int = 8
    #: Journal records between snapshot compactions.
    snapshot_every: int = 256
    #: Live journal size that triggers an early compaction (rotation
    #: when ``journal_keep`` > 0).  ``None`` leaves only the op-count
    #: trigger.
    journal_max_bytes: Optional[int] = None
    #: Rotated journal segments to retain (``journal.jsonl.1`` …
    #: ``.keep``); 0 keeps the historical truncate-on-compact.
    journal_keep: int = 0
    #: Calibrated difficulty cost constant (seconds per difficulty
    #: unit) applied to every session this daemon opens — how a
    #: ``fdrepair calibrate`` fit is deployed without monkeypatching.
    unit_cost_s: Optional[float] = None


@dataclass
class SessionEntry:
    """One registered session: live object or frozen snapshot.

    A frozen session's encoded state lives in the manager's session
    store (:mod:`repro.state`) under ``session_key``;
    ``frozen``/``frozen_bytes`` record that it is there and what it
    costs.  ``lock`` sequences the session's ops (acquired on the event
    loop only); ``last_used`` is the manager's logical clock reading
    for LRU eviction; ``bytes`` the current accounting estimate charged
    to ``tenant``.
    """

    tenant: str
    name: str
    session_key: str
    live: Optional[RepairSession] = None
    frozen: bool = False
    frozen_bytes: int = 0
    bytes: int = 0
    last_used: int = 0
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    @property
    def resident(self) -> bool:
        return self.live is not None


class SessionManager:
    """Registry, admission control, and eviction for daemon sessions.

    All sessions share one worker pool (started on first use; each
    solve ships its component's rows, so sessions register nothing with
    it) and one content-addressed solution cache.  The manager never
    touches the event loop — :class:`RepairServer` layers concurrency
    on top.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        recorder: Optional["_obs.Recorder"] = None,
        faults: Optional["_faults.FaultPlan"] = None,
    ) -> None:
        self.config = config or ServerConfig()
        # A sink-less recorder aggregates op latencies and per-tenant
        # counters in memory so ``stats`` can always report them; pass a
        # sink-backed recorder (``--trace``) to also stream a JSONL log.
        self.recorder = recorder if recorder is not None else _obs.Recorder()
        self._faults = _faults.resolve(faults)
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, str], SessionEntry] = {}
        self._tenant_bytes: Dict[str, int] = {}
        self._tenant_evictions: Dict[str, int] = {}
        self._tenant_rehydrations: Dict[str, int] = {}
        self._clock = 0
        self.solutions = SolutionCache(
            self.config.cache_entries, recorder=self.recorder
        )
        self._pool = None
        self._pool_started = False
        self.evictions = 0
        self.rehydrations = 0
        self.ops = 0
        self.errors = 0
        self.snapshots = 0
        self.recovered_sessions = 0
        self.replayed_ops = 0
        self.dropped_cache_entries = 0
        self.unreplayed_journal_lines = 0
        #: Where an unreadable snapshot found at recovery was moved, and
        #: why it could not be read.
        self.unreadable_snapshot: Optional[Dict[str, str]] = None
        #: Where the journal segments from the first damaged one on were
        #: moved at recovery.
        self.damaged_journal: List[str] = []
        #: The state-dir reading recovery acted on (``None`` without a
        #: state dir).
        self.recovery: Optional[StateDirReading] = None
        self._closed = False
        self._replaying = False
        # Lifetime supervision totals from previous daemon incarnations
        # (restored from the snapshot; the current pool's counters are
        # the since-boot split).
        self._supervision_base: Dict[str, int] = {}
        # Crash-safe state: a disk-backed store + op journal when the
        # config names a state dir, heap-only state otherwise.
        self._journal: Optional[OpJournal] = None
        if self.config.state_dir:
            state_dir = self.config.state_dir
            os.makedirs(state_dir, exist_ok=True)
            self.store = DiskSessionStore(os.path.join(state_dir, SPOOL_DIR))
            self._recover()
        else:
            self.store = {}

    # -- pool lifecycle (owned here, never by a session) ---------------
    def _shared_pool(self):
        """The shared :class:`~repro.exec.PersistentWorkerPool`, started
        on first use with ``workers`` processes; ``None`` when
        ``workers`` is 0 or the platform cannot start it."""
        config = self.config
        if config.workers <= 0:
            return None
        with self._lock:
            if not self._pool_started:
                self._pool_started = True
                from .exec import PersistentWorkerPool

                pool = PersistentWorkerPool(
                    config.workers,
                    solve_timeout_s=config.solve_timeout_s,
                    faults=self._faults,
                    recorder=self.recorder,
                )
                if pool.start():
                    self._pool = pool
                else:
                    pool.close()
            return self._pool

    # -- admission -----------------------------------------------------
    def open(
        self, tenant: str, name: str, payload: Mapping[str, object]
    ) -> Dict[str, object]:
        """Admit and create one session; returns its opening status."""
        return self.finish_open(self.admit(tenant, name), payload)

    def admit(self, tenant: str, name: str) -> SessionEntry:
        """Admission control: reserve a registry slot for a new session.

        Cheap and synchronous, so the server can run it on the event
        loop and take ``entry.lock`` before its first await — ops a
        client pipelines behind the ``open`` then queue on the lock
        instead of racing the construction.
        """
        cfg = self.config
        key = (tenant, name)
        with self._lock:
            if self._closed:
                raise ProtocolError("server is shutting down")
            if key in self._entries:
                raise ProtocolError(f"session {name!r} is already open")
            if len(self._entries) >= cfg.max_sessions:
                raise ProtocolError(
                    f"session limit reached ({cfg.max_sessions})"
                )
            held = sum(
                1 for (t, _n) in self._entries if t == tenant
            )
            if held >= cfg.max_tenant_sessions:
                raise ProtocolError(
                    f"tenant {tenant!r} session limit reached "
                    f"({cfg.max_tenant_sessions})"
                )
            if (
                cfg.max_tenant_bytes is not None
                and self._tenant_bytes.get(tenant, 0) >= cfg.max_tenant_bytes
            ):
                raise ProtocolError(
                    f"tenant {tenant!r} memory budget exhausted "
                    f"({cfg.max_tenant_bytes} bytes)"
                )
            # Reserve the slot before the (unlocked) construction below
            # so two concurrent opens of the same name cannot both pass
            # admission.
            entry = SessionEntry(
                tenant=tenant, name=name, session_key=f"{tenant}/{name}"
            )
            self._entries[key] = entry
        return entry

    def finish_open(
        self, entry: SessionEntry, payload: Mapping[str, object]
    ) -> Dict[str, object]:
        """Build the session for an admitted entry (the slow half of
        ``open``); on failure the reserved slot is released."""
        try:
            session = self._build_session(entry, payload)
        except ProtocolError:
            with self._lock:
                self._entries.pop((entry.tenant, entry.name), None)
            raise
        with self._lock:
            entry.live = session
            self._touch(entry)
            self._account(entry)
        self._journal_op("open", entry.tenant, entry.name, payload)
        return {"opened": True, **session.status().as_dict()}

    def _build_session(
        self, entry: SessionEntry, payload: Mapping[str, object]
    ) -> RepairSession:
        schema = payload.get("schema")
        if not isinstance(schema, (list, tuple)) or not schema:
            raise ProtocolError("open needs a non-empty schema list")
        fds_text = payload.get("fds")
        if not isinstance(fds_text, str):
            raise ProtocolError("open needs an fds string")
        options = {
            k: payload[k] for k in _OPTIONS if payload.get(k) is not None
        }
        # The daemon's calibrated cost constant applies to every session
        # that does not pin its own (per-open payload wins — recovery
        # replays the payload, so the choice survives a restart).
        if self.config.unit_cost_s is not None:
            options.setdefault("unit_cost_s", self.config.unit_cost_s)
        try:
            fds = parse_fd_set(fds_text)
            table = Table(
                tuple(str(a) for a in schema), {}, name=entry.name
            )
            session = RepairSession(
                table,
                fds,
                pool=self._shared_pool(),
                session_key=entry.session_key,
                solutions=self.solutions,
                recorder=self.recorder,
                **options,
            )
            rows = payload.get("rows")
            if rows:
                session.append(
                    rows,
                    weights=payload.get("weights"),
                    ids=payload.get("ids"),
                    repair=False,
                )
        except ProtocolError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(str(exc)) from None
        return session

    # -- lookup & op execution ----------------------------------------
    def entry(self, tenant: str, name: str) -> SessionEntry:
        with self._lock:
            entry = self._entries.get((tenant, name))
        if entry is None:
            raise ProtocolError(
                f"no open session {name!r} for tenant {tenant!r}"
            )
        return entry

    def run_op(
        self, entry: SessionEntry, op: str, payload: Mapping[str, object]
    ) -> Dict[str, object]:
        """Execute one session op (rehydrating first when frozen).

        Caller must hold ``entry.lock`` (or be otherwise single-threaded
        for this entry); the registry lock is only taken for the brief
        bookkeeping moments, never across a solve.  Mutating ops are
        appended to the op journal *before* this returns (i.e. before
        the client sees the reply), so an acknowledged op is always
        recoverable — and so is one that failed past validation: an
        append/delete whose repair then raised has applied its delta,
        and replay re-runs it, failure included.  Only a
        :class:`ProtocolError` (raised before the session changed) is
        not journaled.
        """
        self._faults.fire("server.op", op=op, tenant=entry.tenant,
                          session=entry.name)
        session = self._ensure_live(entry)
        self.ops += 1
        journal = True
        try:
            return apply_session_op(session, op, payload)
        except ProtocolError:
            journal = False
            raise
        finally:
            if journal:
                self._journal_op(op, entry.tenant, entry.name, payload)
                with self._lock:
                    self._touch(entry)
                    self._account(entry)

    def _journal_op(
        self, op: str, tenant: str, name: str, payload: Mapping[str, object]
    ) -> None:
        if (self._journal is None or self._replaying
                or op not in JOURNALED_OPS):
            return
        self._journal.append(op, tenant, name, payload)

    def _ensure_live(self, entry: SessionEntry) -> RepairSession:
        if entry.live is not None:
            return entry.live
        if not entry.frozen:
            # The entry was closed — or its ``open`` failed — while
            # this op waited on the session lock.
            raise ProtocolError(
                f"session {entry.name!r} for tenant {entry.tenant!r} "
                "is not open"
            )
        blob = self.store.get(entry.session_key)
        if blob is None:
            raise ProtocolError(
                f"frozen state for session {entry.name!r} of tenant "
                f"{entry.tenant!r} is missing from the session store"
            )
        pool = self._shared_pool()
        try:
            session = RepairSession.restore(
                load_session(blob),
                pool=pool,
                session_key=entry.session_key,
                solutions=self.solutions,
                recorder=self.recorder,
            )
        except (UnreadableState, KeyError, TypeError, ValueError):
            # Damaged or refused state fails this session's op only.
            raise ProtocolError(
                f"frozen state for session {entry.name!r} of tenant "
                f"{entry.tenant!r} is unreadable"
            ) from None
        entry.live = session
        entry.frozen = False
        entry.frozen_bytes = 0
        self.store.pop(entry.session_key, None)
        with self._lock:
            self.rehydrations += 1
            self._tenant_rehydrations[entry.tenant] = (
                self._tenant_rehydrations.get(entry.tenant, 0) + 1
            )
            self._account(entry)
        if self.recorder.enabled:
            self.recorder.count("server.rehydrations", tenant=entry.tenant)
        return session

    def close(self, tenant: str, name: str) -> Dict[str, object]:
        entry = self.entry(tenant, name)
        with self._lock:
            self._entries.pop((tenant, name), None)
            self._charge(entry, 0)
        if entry.live is not None:
            entry.live.close()
            entry.live = None
        if entry.frozen:
            self.store.pop(entry.session_key, None)
            entry.frozen = False
            entry.frozen_bytes = 0
        self._journal_op("close", tenant, name, {})
        return {"closed": True}

    # -- accounting & eviction ----------------------------------------
    def _touch(self, entry: SessionEntry) -> None:
        self._clock += 1
        entry.last_used = self._clock

    def _account(self, entry: SessionEntry) -> None:
        if entry.live is not None:
            self._charge(entry, entry.live.approx_bytes())
        elif entry.frozen:
            self._charge(entry, entry.frozen_bytes)

    def _charge(self, entry: SessionEntry, new_bytes: int) -> None:
        delta = new_bytes - entry.bytes
        entry.bytes = new_bytes
        total = self._tenant_bytes.get(entry.tenant, 0) + delta
        if total > 0:
            self._tenant_bytes[entry.tenant] = total
        else:
            self._tenant_bytes.pop(entry.tenant, None)

    def evict_to_limit(self) -> int:
        """Freeze least-recently-used sessions down to ``max_resident``.

        Skips sessions whose lock is held (mid-op).  MUST run on the
        thread that acquires session locks (the event loop, for the
        server): the locked-check and the freeze are then atomic, so a
        session can never be frozen under an executing op.
        """
        evicted = 0
        while True:
            with self._lock:
                live = [
                    e
                    for e in self._entries.values()
                    if e.resident and not e.lock.locked()
                ]
                over = (
                    sum(1 for e in self._entries.values() if e.resident)
                    - self.config.max_resident
                )
                if over <= 0 or not live:
                    return evicted
                victim = min(live, key=lambda e: e.last_used)
            self._freeze(victim)
            evicted += 1

    def _freeze(self, entry: SessionEntry) -> None:
        session = entry.live
        if session is None:
            return
        blob = encode_session(session.export_state())
        session.close()
        entry.live = None
        entry.frozen = True
        self.store[entry.session_key] = blob
        entry.frozen_bytes = len(blob)
        with self._lock:
            self.evictions += 1
            self._tenant_evictions[entry.tenant] = (
                self._tenant_evictions.get(entry.tenant, 0) + 1
            )
            self._account(entry)
        if self.recorder.enabled:
            self.recorder.count("server.evictions", tenant=entry.tenant)

    # -- crash safety: recovery & snapshot compaction -----------------
    def _recover(self) -> None:
        """Rebuild daemon state from the state dir, acting on one
        :func:`~repro.state.read_state_dir` reading, kept as
        :attr:`recovery`.

        Runs once, single-threaded, before the manager serves anything.
        Snapshot sessions come back *frozen* (rehydrated lazily on
        first op — restart cost stays flat in session count); journal
        records past the snapshot's sequence are re-executed through
        the ordinary op path, which is byte-identical to the original
        execution because sessions are deterministic.  Ends with a
        fresh compaction, so a crash loop never replays the same tail
        twice.  What recovery could not bring back is reported on
        stderr and in ``stats``: cache entries the migration dropped,
        journal lines past a damaged record, an unreadable snapshot and
        the damaged journal segments — the last two set aside first, so
        the compaction cannot overwrite them.
        """
        with self.recorder.span("server.recover"):
            reading = self.recovery = read_state_dir(self.config.state_dir)
            if reading.unreadable is not None:
                moved = _set_aside(reading.snapshot_path, ".unreadable")
                self.unreadable_snapshot = {
                    "path": moved, "reason": reading.unreadable,
                }
                print(
                    f"fdrepair: snapshot {reading.snapshot_path} is "
                    f"unreadable ({reading.unreadable}); moved to {moved}, "
                    "recovering from the journal alone",
                    file=sys.stderr,
                )
                if self.recorder.enabled:
                    self.recorder.count("server.unreadable_snapshot")
            snapshot = reading.snapshot
            if snapshot:
                for item in snapshot["sessions"]:
                    tenant, name = item["tenant"], item["name"]
                    entry = SessionEntry(
                        tenant=tenant, name=name,
                        session_key=f"{tenant}/{name}",
                    )
                    entry.frozen = True
                    self.store[entry.session_key] = item["blob"]
                    entry.frozen_bytes = len(item["blob"])
                    self._entries[(tenant, name)] = entry
                    with self._lock:
                        self._touch(entry)
                        self._account(entry)
                # Warm the shared cache: the recovered daemon's first
                # repairs are hits, not re-solves.  Entries the
                # migration dropped re-solve on demand.
                self.solutions.load_entries(snapshot.get("solutions") or {})
                supervision = snapshot.get("supervision")
                if isinstance(supervision, dict):
                    self._supervision_base = {
                        str(k): int(v) for k, v in supervision.items()
                    }
            self.dropped_cache_entries = reading.migration_drops
            if reading.migration_drops and self.recorder.enabled:
                self.recorder.count(
                    "server.cache_dropped", reading.migration_drops
                )
            self.unreplayed_journal_lines = reading.unreplayed
            if reading.damaged:
                self.damaged_journal = [
                    _set_aside(segment, ".damaged")
                    for segment in reading.damaged
                ]
                print(
                    f"fdrepair: journal damaged: {reading.unreplayed} "
                    "line(s) from the first undecodable one on were not "
                    "replayed; set aside as "
                    + ", ".join(self.damaged_journal),
                    file=sys.stderr,
                )
                if self.recorder.enabled:
                    self.recorder.count(
                        "server.unreplayed_journal_lines", reading.unreplayed
                    )
            self._journal = OpJournal(
                reading.journal_path,
                fsync_every=self.config.journal_fsync_every,
                start_seq=max(reading.journal_seq, reading.last_seq),
                faults=self._faults,
                max_bytes=self.config.journal_max_bytes,
                keep=self.config.journal_keep,
            )
            self._replaying = True
            try:
                for record in reading.tail:
                    op = str(record.get("op"))
                    tenant = str(record.get("tenant") or "")
                    name = str(record.get("session") or "")
                    payload = record.get("payload") or {}
                    try:
                        if op == "open":
                            self.open(tenant, name, payload)
                        elif op == "close":
                            self.close(tenant, name)
                        else:
                            self.run_op(self.entry(tenant, name), op, payload)
                    except Exception:  # failed live too (journaled)
                        self.errors += 1
            finally:
                self._replaying = False
            self.recovered_sessions = len(self._entries)
            self.replayed_ops = len(reading.tail)
            if self.recorder.enabled:
                self.recorder.count(
                    "server.recovered_sessions", self.recovered_sessions
                )
                self.recorder.count("server.replayed_ops", self.replayed_ops)
            if reading.records or snapshot:
                self.compact(force=True)

    def maybe_compact(self) -> bool:
        """Snapshot-compact when the journal has grown enough.  Called
        from the event-loop thread between requests (same discipline as
        eviction): compaction proceeds only when no session is mid-op,
        so every ``export_state`` it encodes is quiescent."""
        journal = self._journal
        if journal is None:
            return False
        if (journal.appends_since_snapshot < self.config.snapshot_every
                and not (journal.oversized
                         and journal.appends_since_snapshot > 0)):
            return False
        return self.compact()

    def compact(self, force: bool = False) -> bool:
        """Write a full snapshot (every session's state + the shared
        solution cache) stamped with the journal sequence it covers,
        then truncate the journal.  Refuses while any session is mid-op
        unless *force* (callers forcing must guarantee quiescence:
        recovery and shutdown do)."""
        journal = self._journal
        if journal is None:
            return False
        with self._lock:
            entries = list(self._entries.values())
        if not force and any(e.lock.locked() for e in entries):
            return False
        sessions = []
        for entry in entries:
            if entry.live is not None:
                blob = encode_session(entry.live.export_state())
            else:
                blob = self.store.get(entry.session_key)
                if blob is None:
                    continue
            sessions.append(
                {"tenant": entry.tenant, "name": entry.name, "blob": blob}
            )
        snapshot = {
            "journal_seq": journal.seq,
            "sessions": sessions,
            "solutions": self.solutions.export_entries(),
            # Lifetime supervision totals (prior incarnations + this
            # boot so far) — restarts keep the full honesty record.
            "supervision": self.lifetime_supervision(),
        }
        journal.compact(self.recovery.snapshot_path, snapshot)
        self.snapshots += 1
        if self.recorder.enabled:
            self.recorder.count("server.snapshots")
        return True

    # -- introspection & shutdown -------------------------------------
    def lifetime_supervision(self) -> Dict[str, int]:
        """Supervision counters summed across daemon incarnations: the
        snapshot-restored base plus the current executor's since-boot
        counters."""
        totals = dict(self._supervision_base)
        if self._pool is not None:
            for key, value in self._pool.supervision_stats().items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    def stats(self) -> Dict[str, object]:
        with self._lock:
            entries = list(self._entries.values())
            tenant_bytes = dict(self._tenant_bytes)
            tenant_evictions = dict(self._tenant_evictions)
            tenant_rehydrations = dict(self._tenant_rehydrations)
        tenants = (
            {e.tenant for e in entries}
            | set(tenant_bytes)
            | set(tenant_evictions)
            | set(tenant_rehydrations)
        )
        tenant_sessions: Dict[str, Dict[str, int]] = {}
        for tenant in sorted(tenants):
            mine = [e for e in entries if e.tenant == tenant]
            tenant_sessions[tenant] = {
                "resident": sum(1 for e in mine if e.resident),
                "frozen": sum(1 for e in mine if e.frozen),
                "bytes": tenant_bytes.get(tenant, 0),
                "evictions": tenant_evictions.get(tenant, 0),
                "rehydrations": tenant_rehydrations.get(tenant, 0),
            }
        out: Dict[str, object] = {
            "sessions": len(entries),
            "resident": sum(1 for e in entries if e.resident),
            "frozen": sum(1 for e in entries if e.frozen),
            "tenants": len({e.tenant for e in entries}),
            "tenant_bytes": tenant_bytes,
            "tenant_sessions": tenant_sessions,
            "evictions": self.evictions,
            "rehydrations": self.rehydrations,
            "ops": self.ops,
            "errors": self.errors,
            "cache_entries": len(self.solutions),
            "cache_hits": self.solutions.hits,
            "cache_misses": self.solutions.misses,
            "cache_evictions": self.solutions.evictions,
            "pool_alive": bool(self._pool is not None and self._pool.alive),
            "pool_workers": (
                self._pool.worker_count if self._pool is not None else 0
            ),
            "snapshots": self.snapshots,
            "recovered_sessions": self.recovered_sessions,
            "replayed_ops": self.replayed_ops,
            "dropped_cache_entries": self.dropped_cache_entries,
            "unreplayed_journal_lines": self.unreplayed_journal_lines,
            "unreadable_snapshot": self.unreadable_snapshot,
            "damaged_journal": self.damaged_journal,
        }
        if self._pool is not None:
            out["pool_supervision"] = self._pool.supervision_stats()
            out["pool_live"] = self._pool.live_workers()
        if self._supervision_base or self._pool is not None:
            out["pool_supervision_lifetime"] = self.lifetime_supervision()
        journal = self._journal
        if journal is not None:
            out["journal"] = {
                "path": journal.path,
                "seq": journal.seq,
                "appends": journal.appends,
                "fsyncs": journal.fsyncs,
                "since_snapshot": journal.appends_since_snapshot,
                "bytes": journal.bytes,
                "rotations": journal.rotations,
                "keep": journal.keep,
                "max_bytes": journal.max_bytes,
            }
        if self.recorder.enabled:
            out["op_latency_s"] = {
                name: hist
                for name, hist in self.recorder.histograms().items()
                if name.startswith("op.")
            }
            out["tenant_ops"] = self.recorder.tag_totals(
                "server.ops", "tenant"
            )
        return out

    def shutdown(self) -> None:
        """Close every session and the shared pool; idempotent.

        With a state dir, shutdown first takes a final snapshot (the
        caller has drained in-flight ops, so every session is
        quiescent) — a restarted daemon then recovers instantly from
        the snapshot with an empty journal tail.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._journal is not None:
            self.compact(force=True)
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._tenant_bytes.clear()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
        for entry in entries:
            if entry.live is not None:
                entry.live.close()
                entry.live = None
            entry.frozen = False
        self.store.clear()
        if self._journal is not None:
            self._journal.close()
        self.recorder.close()


class RepairServer:
    """Asyncio front end multiplexing JSONL repair traffic onto a
    :class:`SessionManager`.

    One task per request line; a per-session lock sequences each
    session's ops while different sessions proceed concurrently on the
    executor (and, for solver work, on the shared pool's worker
    processes).  Responses may therefore interleave across sessions —
    clients correlate by ``session``/``seq``, which every response
    echoes.
    """

    def __init__(self, manager: Optional[SessionManager] = None) -> None:
        self.manager = manager or SessionManager()
        self._executor = ThreadPoolExecutor(
            max_workers=self.manager.config.executor_threads,
            thread_name_prefix="repro-serve",
        )
        self._shutdown = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()

    # -- shutdown ------------------------------------------------------
    def request_shutdown(self) -> None:
        """Begin a graceful drain: stop accepting new request lines,
        let in-flight ops finish, flush the journal/trace, exit clean.
        Safe to call from a signal handler on the event loop."""
        self._shutdown.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to :meth:`request_shutdown` so a
        supervisor's stop (or Ctrl-C) drains instead of killing.
        Falls back silently where the loop doesn't support signal
        handlers (non-main thread, Windows)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass

    # -- request handling ---------------------------------------------
    async def handle_line(self, line: str, write) -> None:
        """Parse and execute one request line, then send its one
        response via ``write`` (an async callable taking the response
        dict).  The op is recorded (``op.<name>`` latency, the
        ``server.ops`` counter, the ``op`` trace record) before the
        response is written, so a client that has its reply sees the
        op in ``stats``."""
        obj: object = None
        try:
            obj = decode_line(line)
            req = Request(obj)
        except ProtocolError as exc:
            self.manager.errors += 1
            reply = {"ok": False, "error": str(exc)}
            if isinstance(obj, dict):
                # Echo whatever envelope the client did send, so it can
                # still correlate the failure by seq.
                for field in ("op", "tenant", "session", "seq"):
                    value = obj.get(field)
                    if isinstance(value, (str, int)):
                        reply[field] = value
        else:
            start = _perf_counter()
            try:
                reply = req.reply(**await self._execute(req))
            except Exception as exc:
                # A failed op is answered and its session stays open.
                self.manager.errors += 1
                reply = req.error(_error_text(exc))
            self._record(req, _perf_counter() - start, reply["ok"])
        await write(reply)

    def _record(self, req: Request, dur: float, ok: bool) -> None:
        """Count one answered op: its ``op.<name>`` latency, the
        ``server.ops`` counter and its ``op`` trace record."""
        rec = self.manager.recorder
        if not rec.enabled:
            return
        rec.observe(f"op.{req.op}", dur)
        if req.tenant:
            rec.count("server.ops", tenant=req.tenant)
        else:
            rec.count("server.ops")
        rec.record("op", op=req.op, tenant=req.tenant, session=req.session,
                   dur_s=round(dur, 6), ok=ok)

    async def _execute(self, req: Request) -> Dict[str, object]:
        """Run one validated request; returns its response fields."""
        manager = self.manager
        if req.op == "ping":
            return {"pong": True}
        if req.op == "stats":
            return manager.stats()
        if req.op == "shutdown":
            # Acknowledge first, stop accepting after.
            self._shutdown.set()
            return {"stopping": True}
        if req.op == "open":
            # Admission is synchronous, and entry.lock is free when it
            # returns, so the ``async with`` below takes the lock on its
            # no-yield fast path: ops pipelined behind this open queue
            # on the lock until construction finishes.
            entry = manager.admit(req.tenant, req.session)
            run = partial(manager.finish_open, entry, req.payload)
        else:
            entry = manager.entry(req.tenant, req.session)
            run = partial(manager.run_op, entry, req.op, req.payload)
        async with entry.lock:
            if req.op == "close":
                fields = manager.close(req.tenant, req.session)
            else:
                loop = asyncio.get_running_loop()
                fields = await loop.run_in_executor(self._executor, run)
        manager.evict_to_limit()
        manager.maybe_compact()
        return fields

    async def _serve_lines(self, reader: asyncio.StreamReader, write) -> None:
        """The request loop both transports run: read lines from
        *reader* until EOF or shutdown, one :meth:`handle_line` task per
        line, then drain the in-flight ops so their responses ship."""
        tasks: List[asyncio.Task] = []
        stop = asyncio.ensure_future(self._shutdown.wait())
        try:
            while not self._shutdown.is_set():
                read = asyncio.ensure_future(_read_request_line(reader))
                # Race the read against shutdown so a drain (signal or
                # ``shutdown`` op) interrupts an idle client instead of
                # waiting for its next line.
                await asyncio.wait(
                    {read, stop}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read.done():
                    read.cancel()
                    try:
                        await read
                    except (asyncio.CancelledError, ConnectionError,
                            asyncio.IncompleteReadError):
                        pass
                    break
                try:
                    line = read.result()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if line is None:
                    break
                if line is _OVERLONG:
                    self.manager.errors += 1
                    await write({
                        "ok": False,
                        "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
                    })
                    continue
                text = line.decode("utf-8", errors="replace").strip()
                if text:
                    tasks = [t for t in tasks if not t.done()]
                    tasks.append(
                        asyncio.create_task(self.handle_line(text, write))
                    )
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            stop.cancel()

    # -- transports ----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        wlock = asyncio.Lock()

        async def write(obj) -> None:
            async with wlock:
                writer.write(encode(obj).encode("utf-8"))
                await writer.drain()

        me = asyncio.current_task()
        self._conn_tasks.add(me)
        try:
            await self._serve_lines(reader, write)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conn_tasks.discard(me)

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        """Start listening; returns the actual bound port (useful with
        ``port=0``).  Run :meth:`wait_closed` to block until shutdown."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        return self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        """Block until a ``shutdown`` op or signal arrives, then drain:
        stop accepting, finish in-flight connections, flush state."""
        await self._shutdown.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Connection handlers observe the shutdown event, finish their
        # in-flight ops, and deregister themselves; wait for all of
        # them rather than trusting the listener's close semantics.
        pending = [t for t in self._conn_tasks if not t.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        await self.aclose()

    async def serve_stdio(self) -> None:
        """Serve the protocol over stdin/stdout until EOF or shutdown.

        A *daemon* thread reads fd 0 with ``os.read`` and feeds a
        ``StreamReader`` on the event loop, so stdio runs the same line
        reader and request loop as a TCP connection: the same line
        limit, per-session concurrency and drain on EOF or shutdown.
        Never ``sys.stdin``: a pool worker forked while a thread blocks
        in ``sys.stdin.readline()`` inherits stdin's buffer lock held
        and hangs in ``multiprocessing``'s ``_close_stdin``; raw reads
        take no lock, so every spawn, respawns included, is safe.  A
        drain never waits on the blocked thread.
        """
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)

        def pump() -> None:
            try:
                try:
                    while chunk := os.read(0, 1 << 16):
                        loop.call_soon_threadsafe(reader.feed_data, chunk)
                except OSError:
                    pass  # unreadable stdin: treated as EOF
                loop.call_soon_threadsafe(reader.feed_eof)
            except RuntimeError:
                pass  # the event loop already closed

        threading.Thread(target=pump, name="repro-stdin", daemon=True).start()

        async def write(obj) -> None:
            sys.stdout.write(encode(obj))
            sys.stdout.flush()

        await self._serve_lines(reader, write)
        await self.aclose()

    async def aclose(self) -> None:
        """Drain the executor and close every session and the pool."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.manager.shutdown)
        self._executor.shutdown(wait=True)


def _error_text(exc: Exception) -> str:
    """The ``error`` text of a failed op's response."""
    if isinstance(exc, ProtocolError):
        return str(exc)
    if isinstance(exc, RuntimeError):
        # Pool breakage when the in-process fallback also failed.
        return f"internal: {exc}"
    # A guarantee="optimal" repair whose exact solve outran its budget
    # is expected; anything else is a defect whose traceback goes to
    # stderr.
    if not isinstance(exc, ExactBudgetExceeded):
        traceback.print_exc(file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _set_aside(path: str, suffix: str) -> str:
    """Move *path* to ``<path><suffix>``, or when that name is taken to
    the first free ``<path><suffix>.K``, so a file an earlier boot set
    aside is never overwritten; returns where it went."""
    moved, k = path + suffix, 0
    while os.path.lexists(moved):
        k += 1
        moved = f"{path}{suffix}.{k}"
    os.replace(path, moved)
    return moved
