"""Streaming repair sessions: incremental re-repair under tuple deltas.

Every entry point below this module is batch: ``pipeline.clean`` builds a
conflict index, decomposes, and solves every component — correct, but
wasteful for a long-lived service where a tuple append usually touches
one conflict component (often none).  The component decomposition is
exactly what makes re-repair localisable: a delta can only change the
repair of components whose conflict structure it touches, and components
are content-addressable (their member rows + weights under a fixed Δ
determine their optimal repair).

A :class:`RepairSession` therefore holds, for one ``(table, Δ)`` stream:

* the current table snapshot, which is also its row store (a delta
  builds the next snapshot from one copy of the last; tables stay
  immutable),
* one **live** :class:`~repro.core.conflict_index.ConflictIndex`,
  maintained by :meth:`~repro.core.conflict_index.ConflictIndex.insert` /
  :meth:`~repro.core.conflict_index.ConflictIndex.remove` in
  O(delta · (lhs-group + |Δ|)) instead of a per-call O(|T|·|Δ|) rebuild,
* one **live-component store**, a record per conflict component (ids,
  sub-table, sub-index, content key, bracket, and the plan and solve of
  its last repair): deltas drop the records they touch, and the next
  read re-sweeps only from those records' members and the new tuples —
  never the whole table.  A record whose plan is unchanged serves its
  own solve, so a repair costs O(touched components + deleted ids),
* a **content-addressed per-component repair cache** — always a
  :class:`SolutionCache`, private or shared across sessions — keyed on
  ``(Δ, schema, SolvePolicy)`` plus ``(method, frozen member rows +
  weights)``: it is consulted only for records that are new or whose
  plan changed, so a component that reappears with the same content (or
  that another session solved) is never re-solved,
* optionally the :class:`~repro.exec.PersistentWorkerPool` it is
  given, whose workers solve cache misses, each shipped with its
  component's rows.  Deltas send the pool nothing, and the session
  never builds or stops a pool.

The session is a thin cache layer over the batch path: its misses are
solved by :func:`repro.exec.solve_components` and its results assembled
by the same merge ``pipeline.clean`` uses — the snapshot minus the
deleted ids, built on the first read of ``result.cleaned``.

The load-bearing contract, pinned by ``tests/test_session.py`` property
tests: after **any** sequence of appends and deletes,
:meth:`RepairSession.repair` returns a :class:`~repro.pipeline.CleaningResult`
byte-identical to a from-scratch ``pipeline.clean`` of the current table
— same repaired table, distance, report bracket, and portfolio label.
This holds because every ingredient is shared with the batch path: the
live index equals a rebuild (the PR-1/PR-3 index algebra properties),
the store holds exactly the components a fresh sweep yields (a delta
changes only the components it touches), the portfolio plan is the same
code, and the cached per-component solves are pure functions of content
the cache key freezes (a record serves its own solve only while it is
planned as when that solve was made, i.e. under the same key).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import asdict, dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from . import obs as _obs
from .core.conflict_index import ConflictIndex
from .core.decompose import (
    Component,
    ComponentPlan,
    Decomposition,
    polynomial_bracket,
    resolve_plan_defaults,
)
from .core.dichotomy import classify
from .core.fd import FDSet
from .core.table import Row, Table, TupleId, checked_weight
from .pipeline import (
    CleaningResult,
    _ComponentSolve,
    _decomposed_outcome,
    _require_planned,
)
from .state import FORMAT_VERSION, legacy_global, migrate

__all__ = ["RepairSession", "SessionStats", "SessionStatus", "SolutionCache"]

#: Default trace tags for sessions given no ``session_key``.
_SESSION_KEYS = itertools.count(1)


def __getattr__(name: str):
    # Names earlier releases pickled under this module.
    return legacy_global(__name__, name)


#: The constructor options :meth:`RepairSession.export_state` records,
#: and all the daemon's ``open`` forwards from its payload.
_OPTIONS = ("guarantee", "exact_threshold", "exact_budget_s", "unit_cost_s",
            "node_limit")

#: Bound on the private solution cache of a session given none:
#: superseded entries are not invalidated eagerly, so an unbounded cache
#: would grow for as long as the stream runs.
_PRIVATE_CACHE_ENTRIES = 10_000

#: Seconds a repair waits for the pool to finish its batch of solves
#: before re-solving the batch in process.
_POOL_BATCH_TIMEOUT_S = 600.0


class SolutionCache:
    """A thread-safe LRU cache of per-component repairs, shareable
    across sessions.

    Component repairs are content-addressed — the kept ids are a pure
    function of the member rows, weights, ids, and the solve method —
    so *any* session whose component carries identical content can serve
    another session's solve verbatim.  This is the component-locality
    result working across tenants: in a multi-tenant daemon where many
    streams carry overlapping data (the schema-discovery workload, or N
    tenants cleaning near-identical dimension tables), one tenant's
    solve becomes every other tenant's cache hit.

    Every session scopes its keys by FD set, schema, and
    :class:`~repro.core.decompose.SolvePolicy` — guarantee included —
    so content can never leak between sessions for which the same
    member rows would repair differently: an ``"optimal"`` session is
    never served the 2-approximation a ``"best"`` session fell back to.
    Sessions with different guarantees therefore share no entries.  A
    session given no cache builds a private one.
    Mutations take a lock — sessions running on different executor
    threads hit a shared cache concurrently.  ``hits`` and ``misses``
    count real :meth:`get` calls only: a session serves an unchanged
    component from its own store without asking the cache.
    """

    def __init__(self, max_entries: Optional[int] = 200_000,
                 recorder=None) -> None:
        self._lock = threading.Lock()
        self._data: Dict = {}
        self._max = max_entries
        self._recorder = _obs.resolve(recorder)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def max_entries(self) -> Optional[int]:
        """The size bound (``None``: unbounded)."""
        return self._max

    def _trim_locked(self) -> int:
        """Evict least-recently-used entries down to the bound (caller
        holds the lock); returns how many went."""
        evicted = 0
        if self._max is not None:
            while len(self._data) > self._max:
                self._data.pop(next(iter(self._data)))
                evicted += 1
        self.evictions += evicted
        return evicted

    def get(self, key):
        with self._lock:
            entry = self._data.pop(key, None)
            if entry is None:
                self.misses += 1
                return None
            self._data[key] = entry  # refresh recency
            self.hits += 1
            return entry

    def put(self, key, entry) -> None:
        with self._lock:
            self._data[key] = entry
            evicted = self._trim_locked()
        if evicted and self._recorder.enabled:
            self._recorder.count("session.cache_evict", evicted)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def export_entries(self) -> Dict:
        """A consistent copy of the cache contents, LRU order preserved
        — what the crash-safe daemon embeds in its snapshots so a
        recovered daemon's first repairs are warm hits."""
        with self._lock:
            return dict(self._data)

    def load_entries(self, data: Mapping) -> None:
        """Bulk-restore exported entries (recovery path); existing
        entries win on key collision, and the size bound still holds."""
        with self._lock:
            for key, entry in data.items():
                if key not in self._data:
                    self._data[key] = entry
            self._trim_locked()

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class _LiveComponent:
    """One record of a session's live-component store; the bracket is
    computed on the first :meth:`RepairSession.status` that reads it.
    ``plan`` and ``solve`` are those of the record's last repair: while
    a repair plans the record the same way, it serves ``solve`` without
    a cache lookup (the key would be the same)."""

    component: Component
    content: Tuple
    bracket: Optional[Tuple[float, float]] = None
    plan: Optional[ComponentPlan] = None
    solve: Optional[_ComponentSolve] = None


@dataclass(frozen=True)
class SessionStatus:
    """A solver-free snapshot of one session's dirtiness.

    Served from the session's live-component store: the bracket sums
    the polynomial ``[matching, Bar-Yehuda–Even]`` bracket each record
    computes once, on its first reading — no exact branch & bound, no
    OptSRepair, no worker-pool round trip.  The true optimal deletion
    cost always lies inside ``[lower_bound, upper_bound]``
    (Proposition 3.3).
    """

    tuples: int
    total_weight: float
    conflicts: int
    conflicting_tuples: int
    components: int
    lower_bound: float
    upper_bound: float
    cache_entries: int
    repairs: int

    @property
    def consistent(self) -> bool:
        return self.conflicts == 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class SessionStats:
    """Running counters of one session's incremental work.
    ``cache_hits`` counts every component a repair served without a
    solve — from its store record or from the cache — and
    ``cache_misses`` every component it solved."""

    appends: int = 0
    deletes: int = 0
    repairs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pool_solves: int = 0
    serial_solves: int = 0
    pool_fallbacks: int = 0
    tuples_appended: int = 0
    tuples_deleted: int = 0

    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class RepairSession:
    """An incremental repair service over one table and FD set.

    It solves in process or on the *pool* it is given, and caches in a
    private cache or the *solutions* cache it is given.

    Parameters
    ----------
    table:
        The initial table (may be empty).  The session snapshots it; the
        caller's object is never mutated.
    fds:
        The FD set Δ, fixed for the session's lifetime.
    guarantee:
        Portfolio guarantee, as in :func:`repro.pipeline.clean`
        (``"best"`` / ``"optimal"`` / ``"fast"``).
    exact_threshold:
        Component-size boundary for exact solving on hard Δ (default
        :data:`~repro.core.decompose.EXACT_COMPONENT_THRESHOLD`).
    exact_budget_s:
        **Global** exact-solve budget in wall-clock seconds (default:
        unlimited), as in :func:`repro.pipeline.clean`: each repair's
        components are ranked by predicted difficulty and granted exact
        solves easiest-first while the predicted spend fits; the
        residual tail is planned approximate up front.  The plan is
        deterministic; the result only as far as each granted solve
        finishes inside its slice.  One that outruns it falls back to
        the 2-approximation by the wall clock, recorded in the component
        cache so the fallback is sticky while the component's content
        (and scheduled slice) is unchanged — so two sessions fed the
        same deltas can differ near a slice boundary.  Under
        ``guarantee="optimal"`` such a solve raises
        :class:`~repro.graphs.vertex_cover.ExactBudgetExceeded` from
        :meth:`repair` instead, and nothing of that repair is cached.
    node_limit:
        Branch & bound node budget per exact component solve.
    pool:
        A :class:`~repro.exec.PersistentWorkerPool`, possibly shared
        with other sessions (the multi-tenant daemon's layout), that
        solves every repair's cache misses — even a single one, so a
        slow solve runs in a worker while the caller's thread only
        waits.  The session starts the pool if it is not running, and
        ships each miss with its component's rows; deltas send the pool
        nothing.  It never builds a pool of its own or stops one: engine
        state is the session's, process lifecycle is the caller's.  A
        batch the pool has not finished in 600 s, or a pool that fails,
        is re-solved in process, counted in ``stats.pool_fallbacks``; a
        failed pool is not used again.  Without a pool every solve runs
        in process.
    session_key:
        The tag on the session's trace records and pool solves
        (``session-N`` when omitted).
    solutions:
        A :class:`SolutionCache` shared with other sessions, used in
        place of a private one (of 10 000 entries, least-recently-used
        evicted; evicted components simply re-solve).  Keys are scoped
        by FD set, schema, and
        :class:`~repro.core.decompose.SolvePolicy` — which carries
        *guarantee* with the other solver settings — so sharing is
        always byte-identical-safe.
    recorder:
        Optional :class:`repro.obs.Recorder` (shareable across sessions
        — it is thread-safe).  When enabled, every :meth:`repair` is a
        ``session.repair`` span with phase children, each solved
        component emits a ``solve`` trace record (plan evidence +
        serial/pool-measured actual seconds), cache hits / misses tick
        ``session.cache_*`` counters tagged with the session key, and
        the cache's evictions tick ``session.cache_evict``.  The default no-op recorder costs an attribute
        check per guard.

    Only the ``"deletions"`` strategy is supported: update repairs mint
    fresh labelled nulls whose identity-based equality makes
    "byte-identical to a from-scratch run" unobservable, so an
    incremental U-repair cache could not be pinned by the session's
    core property.  Use :func:`repro.pipeline.clean` for batch U-repairs.
    """

    def __init__(
        self,
        table: Table,
        fds: FDSet,
        *,
        guarantee: str = "best",
        exact_threshold: Optional[int] = None,
        exact_budget_s: Optional[float] = None,
        unit_cost_s: Optional[float] = None,
        node_limit: Optional[int] = None,
        pool=None,
        session_key: Optional[str] = None,
        solutions: Optional[SolutionCache] = None,
        recorder=None,
    ) -> None:
        self._recorder = _obs.resolve(recorder)
        self._fds = fds
        self._policy = policy = resolve_plan_defaults(
            exact_threshold, node_limit, exact_budget_s, unit_cost_s,
            guarantee,
        )
        self._verdict = classify(fds)
        self._schema = table.schema
        self._attr_index: Dict[str, int] = {
            a: i for i, a in enumerate(self._schema)
        }
        self._name = table.name
        # The snapshot is the row store; this is its one copy of the
        # caller's rows (see :meth:`_advance` on trusting them).
        self._table = Table._from_trusted(
            self._schema, table.rows(), table.weights(), self._name,
            self._attr_index,
        )
        self._used_ids = set(self._table._rows)
        self._next_auto_id = 1 + max(
            (tid for tid in self._used_ids if isinstance(tid, int)),
            default=0,
        )
        self._index = ConflictIndex(self._table, fds)
        # The live-component store, keyed by the table position of each
        # component's earliest member, and its tid → record map.
        self._store: Dict[int, _LiveComponent] = {}
        self._record_of: Dict[TupleId, _LiveComponent] = {}
        self._touched: Set[TupleId] = set()
        self._store_components(self._index.components())
        # One cache, private or shared.  Keys are prefixed with
        # everything besides component content that can change a
        # solve's outcome — Δ, the schema (it fixes which columns each
        # FD reads), and the solver policy (budget fallbacks and node
        # limits are sticky in cached methods, and only the guarantee
        # decides whether a fallback may be served at all) — so two
        # sessions share an entry exactly when serving it is
        # indistinguishable from re-solving.
        self._owns_cache = solutions is None
        self._cache = (
            SolutionCache(_PRIVATE_CACHE_ENTRIES, recorder=self._recorder)
            if solutions is None else solutions
        )
        self._cache_scope = (fds, self._schema, policy)
        # The caller's pool, if any: the session only solves on it —
        # the engine-state / process-lifecycle split the server builds
        # on.
        self._pool = pool
        self._session_key = (
            f"session-{next(_SESSION_KEYS)}" if session_key is None
            else session_key
        )
        self.stats = SessionStats()
        self.last_result: Optional[CleaningResult] = None
        #: Cache entries :meth:`restore` could not carry over.
        self.dropped_cache_entries = 0

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def table(self) -> Table:
        """The current table snapshot."""
        return self._table

    @property
    def fds(self) -> FDSet:
        return self._fds

    @property
    def index(self) -> ConflictIndex:
        """The live conflict index (treat as read-only)."""
        return self._index

    @property
    def solutions(self) -> SolutionCache:
        """The cache this session stores its solves in: the shared one
        it was given, or its private one."""
        return self._cache

    @property
    def pool(self):
        """The worker pool this session was given; ``None`` without one,
        after :meth:`close`, and once the pool failed."""
        return self._pool

    def __len__(self) -> int:
        return len(self._table)

    def cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop all cached component repairs, the ones this session's
        store records hold included (they rebuild on demand).  On a
        shared cache this clears *every* session's entries; other
        sessions keep the solves their own records hold."""
        self._cache.clear()
        for record in self._store.values():
            record.plan = record.solve = None

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def _advance(self, rows: Dict[TupleId, Row],
                 weights: Dict[TupleId, float]) -> None:
        """Make *rows*/*weights* — a copy of the current snapshot's with
        one delta applied — the next snapshot, and re-anchor the live
        index on it (which checks that it holds exactly the live
        tuples).

        Trusted construction: the session validated every row on entry
        (arity, hashability and weights in :meth:`append`), so
        re-checking per snapshot would make each delta O(|T|·k) for no
        information.
        """
        self._table = Table._from_trusted(
            self._schema, rows, weights, self._name, self._attr_index
        )
        self._index.reanchor(self._table)

    def _normalise_row(self, row) -> Row:
        if isinstance(row, Mapping):
            try:
                return tuple(row[a] for a in self._schema)
            except KeyError as exc:
                raise ValueError(
                    f"record is missing attribute {exc.args[0]!r}"
                ) from None
        return tuple(row)

    def _allocate_id(self) -> TupleId:
        while self._next_auto_id in self._used_ids:
            self._next_auto_id += 1
        tid = self._next_auto_id
        self._next_auto_id += 1
        return tid

    def append(
        self,
        rows: Iterable,
        weights: Optional[Sequence[float]] = None,
        ids: Optional[Sequence[TupleId]] = None,
        repair: bool = True,
    ) -> Optional[CleaningResult]:
        """Append tuples and (by default) return the re-repaired result.

        *rows* may be value sequences or attribute-keyed mappings.
        Identifiers are auto-assigned (fresh integers) unless *ids* is
        given; weights default to 1.0.  With ``repair=False`` the delta
        is applied (snapshot, index, store) but no repair is computed —
        useful for ingesting a burst before asking for one result.
        """
        rows = [self._normalise_row(r) for r in rows]
        if weights is not None and len(weights) != len(rows):
            raise ValueError("weights and rows have different lengths")
        if ids is not None:
            if len(ids) != len(rows):
                raise ValueError("ids and rows have different lengths")
            clashes = [tid for tid in ids if tid in self._table]
            if clashes:
                raise ValueError(
                    f"identifiers already live: {sorted(map(str, clashes))}"
                )
            if len(set(ids)) != len(ids):
                raise ValueError("duplicate identifiers in append")
        # Validate everything *before* the first mutation, so a bad row
        # mid-batch cannot leave the index and the row store divergent.
        arity = len(self._schema)
        for row in rows:
            if len(row) != arity:
                raise ValueError(
                    f"row has arity {len(row)}, schema has {arity}"
                )
            try:
                hash(row)
            except TypeError:
                raise ValueError(
                    f"row {list(row)!r} holds an unhashable value"
                ) from None
        new_weights = [
            checked_weight(w)
            for w in (weights if weights is not None else [1.0] * len(rows))
        ]
        new_ids = list(ids) if ids is not None else [
            self._allocate_id() for _ in rows
        ]
        next_rows, next_weights = self._table.rows(), self._table.weights()
        for tid, row, weight in zip(new_ids, rows, new_weights):
            # A new conflict merges the components of the new tuple's
            # partners: their records go, and the sweep starts from it.
            if self._index.insert(tid, row, weight):
                self._touched.add(tid)
                self._drop_components(self._index.neighbors(tid))
            next_rows[tid] = row
            next_weights[tid] = weight
            self._used_ids.add(tid)
        self._advance(next_rows, next_weights)
        self.stats.appends += 1
        self.stats.tuples_appended += len(rows)
        return self.repair() if repair else None

    def delete(
        self, ids: Iterable[TupleId], repair: bool = True
    ) -> Optional[CleaningResult]:
        """Delete tuples by identifier; see :meth:`append` for *repair*."""
        ids = list(ids)
        missing = [tid for tid in ids if tid not in self._table]
        if missing:
            raise KeyError(
                f"unknown identifiers: {sorted(map(str, missing))}"
            )
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate identifiers in delete")
        self._drop_components(ids)
        next_rows, next_weights = self._table.rows(), self._table.weights()
        for tid in ids:
            self._index.remove(tid)
            del next_rows[tid]
            del next_weights[tid]
        self._advance(next_rows, next_weights)
        self.stats.deletes += 1
        self.stats.tuples_deleted += len(ids)
        return self.repair() if repair else None

    # ------------------------------------------------------------------
    # The live-component store
    # ------------------------------------------------------------------
    def _store_components(self, components: Iterable[List[TupleId]]) -> None:
        """Add one record per component (member ids in table order).  A
        live tuple's row and weight never change (sessions have no update
        op), so a record stays valid until a delta drops it."""
        table, index = self._table, self._index
        rows, weights = table._rows, table._weights
        position = index._position
        for ids in components:
            key = tuple(ids)
            subtable = table.subset(key)
            record = _LiveComponent(
                Component(0, key, subtable, index.project(subtable, set(key))),
                tuple((tid, rows[tid], weights[tid]) for tid in key),
            )
            self._store[position[key[0]]] = record
            for tid in key:
                self._record_of[tid] = record

    def _drop_components(self, ids: Iterable[TupleId]) -> None:
        """Drop the records holding any of *ids* — a delete's own ids, an
        append's new conflict partners; their members are re-swept at
        the next read."""
        record_of = self._record_of
        position = self._index._position
        for tid in ids:
            record = record_of.get(tid)
            if record is not None:
                members = record.component.ids
                del self._store[position[members[0]]]
                for member in members:
                    del record_of[member]
                self._touched.update(members)

    def _live_components(self) -> List[_LiveComponent]:
        """The store's records in earliest-member order (a fresh
        ``ConflictIndex.components()`` order), after sweeping just the
        components the deltas since the last read touched."""
        if self._touched:
            touched, self._touched = self._touched, set()
            self._store_components(self._index.components(roots=touched))
        store = self._store
        return [store[key] for key in sorted(store)]

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _started_pool(self):
        """The pool to solve this repair's misses on, started if it is
        not running.  ``None`` — solve in process — without a pool, or
        when it cannot run (it is then dropped)."""
        pool = self._pool
        if pool is not None and not pool.start():
            self._drop_pool()
            return None
        return pool

    def _drop_pool(self) -> None:
        """Stop using a pool that failed (counted as a fallback)."""
        self.close()
        self.stats.pool_fallbacks += 1

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _decompose(self) -> Tuple[Decomposition, List[_LiveComponent]]:
        """The current decomposition, assembled from the store, and the
        store record of each component.  Content-identical to
        :func:`repro.core.decompose.decompose` on the current snapshot —
        component order, member order, and sub-instances all match, so
        everything downstream stays byte-identical to the batch path.
        """
        records = self._live_components()
        for ordinal, record in enumerate(records):
            record.component.ordinal = ordinal
        decomp = Decomposition(
            table=self._table,
            fds=self._fds,
            index=self._index,
            components=[record.component for record in records],
        )
        return decomp, records

    def _cache_key(self, content: Tuple, plan) -> Tuple:
        """Cache key of one component solve: ``(scope, method,
        content)``, or ``(scope, method, epoch, content)`` for an exact
        solve under a global budget.  The epoch is its scheduled
        wall-clock slice: whether such a solve succeeds (and stays sticky
        on fallback) depends on its slice, which shifts as the schedule
        around the component changes — keying on it keeps cached
        fallbacks honest.  Built only for the records a repair looks up
        (new or re-planned ones), as one flat tuple."""
        if self._policy.exact_budget_s is not None and plan.method == "exact":
            return (self._cache_scope, plan.method, plan.budget_s, content)
        return (self._cache_scope, plan.method, content)

    def repair(self) -> CleaningResult:
        """Re-repair the current table, re-solving only the components
        the deltas since the last call actually changed.

        Components come from the live-component store (see
        :meth:`_decompose`).  The result is byte-identical to
        ``pipeline.clean(session.table, fds, guarantee=...,
        exact_threshold=..., exact_budget_s=...)`` — same cleaned table,
        distance, dirtiness report, and portfolio label: the misses are
        solved by :func:`repro.exec.solve_components` and the result
        assembled by the batch path's own merge, whose ``cleaned`` table
        is built on its first read.  The schedule is re-planned per call
        (it is pure arithmetic over the current components).  A record
        planned as at its last repair serves the solve it holds; only
        new records and re-planned ones look the cache up, so a repair
        costs O(touched components + deleted ids), not O(|T|).  Under a
        global budget an exact solve's cache key carries its scheduled
        slice, so a slice change — the schedule shifting as components
        come and go — re-solves rather than serving a result computed
        under a different ceiling.

        The misses are solved on the session's pool when it has one —
        even a single miss, so a slow solve runs in a worker process and
        the caller's thread only waits, keeping a daemon's event loop
        and every co-tenant session responsive.
        """
        from .exec import solve_components

        rec = self._recorder
        tag = str(self._session_key)
        with rec.span("session.repair", key=tag):
            with rec.span("phase.decompose"):
                decomp, records = self._decompose()
            with rec.span("phase.plan"):
                plans = decomp.plan_schedule(
                    self._verdict.tractable, self._policy
                )
            solves: List[Optional[_ComponentSolve]] = []
            keys: Dict[int, Tuple] = {}
            for i, (record, plan) in enumerate(zip(records, plans)):
                # Size-rule plans are shared instances, so identity
                # settles most records without a field-wise compare.
                solve = record.solve
                if solve is None or (plan is not record.plan
                                     and plan != record.plan):
                    keys[i] = key = self._cache_key(record.content, plan)
                    solve = self._cache.get(key)
                solves.append(solve)
            misses = [i for i, solve in enumerate(solves) if solve is None]
            hits = len(solves) - len(misses)
            self.stats.cache_hits += hits
            self.stats.cache_misses += len(misses)
            if rec.enabled:
                if hits:
                    rec.count("session.cache_hit", hits, key=tag)
                if misses:
                    rec.count("session.cache_miss", len(misses), key=tag)
            with rec.span("phase.solve"):
                pool = self._started_pool() if misses else None
                kept_lists, methods = solve_components(
                    decomp, plans, policy=self._policy, recorder=rec,
                    executor=pool, only=misses, key=self._session_key,
                    timeout=_POOL_BATCH_TIMEOUT_S, stats=self.stats,
                )
                if pool is not None and not pool.alive:
                    self.close()
            if self._policy.guarantee == "optimal":
                _require_planned(plans, misses, methods)
            with rec.span("phase.merge"):
                for i, kept, method in zip(misses, kept_lists, methods):
                    solves[i] = _ComponentSolve(kept, method)
                    self._cache.put(keys[i], solves[i])
                for i in keys:
                    records[i].plan, records[i].solve = plans[i], solves[i]
                result = _decomposed_outcome(
                    decomp, self._verdict, plans, solves, self._policy
                )
        self.stats.repairs += 1
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    # Solver-free status
    # ------------------------------------------------------------------
    def status(self) -> SessionStatus:
        """A dirtiness snapshot served without touching any solver.

        The bracket sums, in component order, each store record's
        polynomial ``[matching lower bound, Bar-Yehuda–Even upper
        bound]`` (computed once per record) — the optimal deletion cost
        provably lies inside it — and every other field reads O(1)
        bookkeeping; a reading right after a repair sweeps nothing.
        A monitoring endpoint can
        therefore poll ``status`` at any rate without ever queueing
        behind (or triggering) exact solves.
        """
        records = self._live_components()
        lower = upper = 0.0
        for record in records:
            if record.bracket is None:
                component = record.component
                record.bracket = polynomial_bracket(
                    component.index, component.table
                )
            lower += record.bracket[0]
            upper += record.bracket[1]
        return SessionStatus(
            tuples=len(self._table),
            total_weight=self._table.total_weight(),
            conflicts=self._index.num_edges,
            conflicting_tuples=self._index.conflicting_count,
            components=len(records),
            lower_bound=lower,
            upper_bound=upper,
            cache_entries=self.cache_size(),
            repairs=self.stats.repairs,
        )

    # ------------------------------------------------------------------
    # Serialisation: eviction and rehydration
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """A state, in the current :mod:`repro.state` format, from which
        :meth:`restore` rebuilds an equivalent session.

        Engine *state* serialises — rows, weights (in insertion order,
        which the solvers observe), id-allocator bookkeeping,
        options, stats, and the entries of a private cache.  Process
        *lifecycle* does not: pools and shared caches re-attach on
        restore, and the conflict index, kernel view, and component
        structures rebuild on demand (a rebuild equals the
        live-maintained index by the PR-1/PR-3 algebra properties, so a
        rehydrated session's repairs stay byte-identical to one that was
        never evicted).  Sessions on a shared :class:`SolutionCache`
        export no cache entries at all — their solves survive eviction
        *in the cache itself*, which is the point of content addressing.
        """
        policy = self._policy
        return {
            "version": FORMAT_VERSION,
            "schema": self._schema,
            "name": self._name,
            "fds": self._fds,
            "rows": self._table.rows(),
            "weights": self._table.weights(),
            "used_ids": set(self._used_ids),
            "next_auto_id": self._next_auto_id,
            "options": {
                "guarantee": policy.guarantee,
                "exact_threshold": policy.threshold,
                "exact_budget_s": policy.exact_budget_s,
                "unit_cost_s": policy.unit_cost_s,
                "node_limit": policy.node_limit,
            },
            "solutions": (
                self._cache.export_entries() if self._owns_cache else {}
            ),
            "stats": asdict(self.stats),
        }

    @classmethod
    def restore(
        cls,
        state: Mapping[str, object],
        *,
        pool=None,
        session_key: Optional[str] = None,
        solutions: Optional[SolutionCache] = None,
        recorder=None,
    ) -> "RepairSession":
        """Rebuild a session from :meth:`export_state` output, attaching
        it to the given (possibly shared) pool, solution cache, and
        recorder (recorders are process-lifecycle, not engine state, so
        they re-attach like pools rather than serialising).

        Exported cache entries load into whichever cache the restored
        session uses, private or shared (their keys are scoped, so that
        is always safe).  A state of an older format version first goes
        through :func:`repro.state.migrate`; the cache entries it drops
        are counted in :attr:`dropped_cache_entries` (0 otherwise)."""
        state, dropped = migrate(state)
        schema = tuple(state["schema"])
        # A transient view of the state's rows: the constructor makes
        # the session's one copy.
        table = Table._from_trusted(
            schema,
            state["rows"],
            state["weights"],
            state["name"],
            {a: i for i, a in enumerate(schema)},
        )
        session = cls(
            table,
            state["fds"],
            pool=pool,
            session_key=session_key,
            solutions=solutions,
            recorder=recorder,
            **state["options"],
        )
        session._used_ids |= set(state["used_ids"])
        # Adopt the exported allocator reading *exactly* (the
        # constructor recomputes a floor from the rows, which can sit
        # above a live session that only ever saw explicit ids).  Safe:
        # allocation skips ``_used_ids``, which the union above makes a
        # superset of every id this session ever issued — and exactness
        # keeps a rehydrated session's future auto ids byte-identical
        # to one that was never evicted.
        session._next_auto_id = int(state["next_auto_id"])
        session.dropped_cache_entries = dropped
        session._cache.load_entries(state["solutions"])
        session.stats = SessionStats(**state["stats"])
        return session

    def approx_bytes(self) -> int:
        """A cheap resident-memory estimate for admission control.

        Counts the dominant structures — rows, the conflict index +
        kernel view (both scale with the row count), and a private
        component cache — at calibrated per-entry costs rather than
        walking objects with ``sys.getsizeof`` (which would cost more
        than the eviction decision it feeds).  Entries on a shared
        :class:`SolutionCache` are accounted by the cache owner, not per
        session.
        """
        arity = len(self._schema)
        per_tuple = 120 + 64 * arity
        index_factor = 3  # rows + live index + kernel/codec arrays
        cached = len(self._cache) * (160 + 48 * arity) if self._owns_cache else 0
        return 512 + len(self._table) * per_tuple * index_factor + cached

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop using the worker pool (the session stays usable
        serially); stopping the pool is its owner's job."""
        self._pool = None

    def __enter__(self) -> "RepairSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"RepairSession({len(self)} tuples, {self._fds}, "
            f"{self._index.num_edges} conflicts, "
            f"cache={len(self._cache)})"
        )
