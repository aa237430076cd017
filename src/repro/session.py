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

* the current table (re-snapshotted per delta; tables stay immutable),
* one **live** :class:`~repro.core.conflict_index.ConflictIndex`,
  maintained by :meth:`~repro.core.conflict_index.ConflictIndex.insert` /
  :meth:`~repro.core.conflict_index.ConflictIndex.remove` in
  O(delta · (lhs-group + |Δ|)) instead of a per-call O(|T|·|Δ|) rebuild,
* a **content-addressed per-component repair cache** keyed on
  ``(method, frozen member rows + weights)`` — components untouched by
  the delta hit the cache and are never re-solved,
* optionally a :class:`~repro.exec.PersistentWorkerPool` of warm worker
  processes that mirror the table via the same deltas and solve cache
  misses shipped as component ids only.

The load-bearing contract, pinned by ``tests/test_session.py`` property
tests: after **any** sequence of appends and deletes,
:meth:`RepairSession.repair` returns a :class:`~repro.pipeline.CleaningResult`
byte-identical to a from-scratch ``pipeline.clean`` of the current table
— same repaired table, distance, report bracket, and portfolio label.
This holds because every ingredient is shared with the batch path: the
live index equals a rebuild (the PR-1/PR-3 index algebra properties),
decomposition and the portfolio plan are the same code, and the cached
per-component solves are pure functions of content the cache key freezes.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import asdict, dataclass
from time import perf_counter as _perf_counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import obs as _obs
from .core.conflict_index import ConflictIndex
from .core.decompose import (
    Component,
    Decomposition,
    resolve_plan_defaults,
)
from .core.dichotomy import classify
from .core.fd import FDSet
from .core.table import Row, Table, TupleId
from .pipeline import (
    CleaningResult,
    _bracket_component,
    _decomposed_outcome,
    _lp_qualifies,
)

__all__ = ["RepairSession", "SessionStats", "SessionStatus", "SolutionCache"]

#: Distinct namespace keys for sessions attached to a shared pool.
_SESSION_KEYS = itertools.count(1)


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

    Sessions sharing a cache additionally scope their keys by FD set,
    schema, and solver knobs (see ``RepairSession._cache_scope``), so
    content can never leak between sessions for which the same member
    rows would repair differently.  Mutations take a lock — sessions
    running on different executor threads hit this cache concurrently.
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
        evicted = 0
        with self._lock:
            self._data[key] = entry
            if self._max is not None:
                while len(self._data) > self._max:
                    self._data.pop(next(iter(self._data)))
                    evicted += 1
            self.evictions += evicted
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
            if self._max is not None:
                while len(self._data) > self._max:
                    self._data.pop(next(iter(self._data)))
                    self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)


@dataclass(frozen=True)
class SessionStatus:
    """A solver-free snapshot of one session's dirtiness.

    Served entirely from delta-maintained bookkeeping: the bracket is
    the sum of per-component polynomial ``[matching, Bar-Yehuda–Even]``
    brackets, cached per component and recomputed only for components
    the deltas since the last reading actually touched — no exact
    branch & bound, no OptSRepair, no worker-pool round trip.  The true
    optimal deletion cost always lies inside ``[lower_bound,
    upper_bound]`` (Proposition 3.3).
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
    """Running counters of one session's incremental work."""

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


@dataclass
class _CachedSolve:
    """One component's solved repair: the kept ids, the method that
    actually ran (differs from the planned one exactly when an exact
    solve fell back to ``"approx"`` under the session's exact budget),
    plus — for approximate methods — the matching lower bound its report
    bracket needs (kept ids and bound are pure functions of the
    component, so serving them from cache is indistinguishable from
    recomputing; the cached method makes a budget fallback *sticky*, so
    repeated repairs of an unchanged component stay deterministic).

    ``lp_bound`` memoises the half-integral LP relaxation bound.  It is
    computed lazily — only when a *reading* plan qualifies for LP
    tightening (:func:`repro.pipeline._lp_qualifies`) — because the
    solve itself never needs it and whether it applies depends on the
    reader's guarantee/plan, which the cache key deliberately omits so
    sessions with different guarantees can share solves.  The bound is a
    pure function of component content, so back-filling the shared entry
    is an idempotent write."""

    kept: Tuple[TupleId, ...]
    method: str
    lower_bound: Optional[float] = None
    lp_bound: Optional[float] = None


class RepairSession:
    """An incremental repair service over one table and FD set.

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
        residual tail is planned approximate up front.  Each granted
        solve ships its slice as a hard ceiling; one that outruns it
        falls back to the 2-approximation, recorded in the component
        cache so the fallback is sticky while the component's content
        (and scheduled slice) is unchanged.
    per_component_budget_s:
        The historical *per-solve* wall-clock ceiling (default:
        unlimited) — every exact solve is individually capped, with no
        difficulty scheduling.  May be combined with the global budget,
        in which case each scheduled slice is additionally capped.
        Ships to the warm workers alongside the kernel flag.
    parallel:
        Worker count for solving cache misses.  With ``> 1`` the session
        keeps a :class:`~repro.exec.PersistentWorkerPool` of warm
        processes mirroring the table via deltas; platforms without
        subprocess support degrade to in-process solving silently (the
        results are identical either way).
    node_limit:
        Branch & bound node budget per exact component solve.
    max_cache_entries:
        Cap on the per-component cache (default 10 000 entries) —
        superseded entries are not invalidated eagerly, so an unbounded
        cache would grow for as long as the stream runs.  Least-recently
        -used entries are evicted; correctness is unaffected (evicted
        components simply re-solve).  ``None`` disables the bound.
    pool_timeout:
        Seconds to wait for the warm workers to finish one batch of
        solves (default 600).  On expiry the batch re-solves in process
        — raise it for ``guarantee="optimal"`` sessions whose exact
        components may legitimately run long.
    pool:
        An externally-owned :class:`~repro.exec.PersistentWorkerPool`
        shared with other sessions (the multi-tenant daemon's layout).
        The session attaches its own mirror namespace lazily, keeps it
        synchronised with the same deltas it applies locally, detaches
        on :meth:`close` — and never starts or stops the pool itself:
        engine state is the session's, process lifecycle is the
        caller's.  With a shared pool, even single cache-miss components
        are offloaded, so one session's slow solve keeps the event loop
        (and every other session) responsive.
    session_key:
        Namespace key on the shared *pool* (auto-generated when omitted;
        must be unique per attached session).
    solutions:
        A :class:`SolutionCache` shared with other sessions.  Keys are
        scoped by FD set, schema, and solver knobs, so sharing is always
        byte-identical-safe; ``max_cache_entries`` is ignored in favour
        of the shared cache's own bound.
    recorder:
        Optional :class:`repro.obs.Recorder` (shareable across sessions
        — it is thread-safe).  When enabled, every :meth:`repair` is a
        ``session.repair`` span with phase children, each solved
        component emits a ``solve`` trace record (plan evidence +
        serial/pool-measured actual seconds), and cache hits / misses /
        evictions tick ``session.cache_*`` counters tagged with the
        session key.  The default no-op recorder costs an attribute
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
        per_component_budget_s: Optional[float] = None,
        unit_cost_s: Optional[float] = None,
        parallel: Optional[int] = None,
        node_limit: Optional[int] = None,
        max_cache_entries: Optional[int] = 10_000,
        pool_timeout: float = 600.0,
        pool=None,
        session_key: Optional[str] = None,
        solutions: Optional[SolutionCache] = None,
        recorder=None,
    ) -> None:
        if guarantee not in ("best", "optimal", "fast"):
            raise ValueError(f"unknown guarantee {guarantee!r}")
        self._recorder = _obs.resolve(recorder)
        self._fds = fds
        self._guarantee = guarantee
        self._policy = policy = resolve_plan_defaults(
            exact_threshold, node_limit, exact_budget_s,
            per_component_budget_s, unit_cost_s,
        )
        self._parallel = parallel
        self._max_cache_entries = max_cache_entries
        self._pool_timeout = pool_timeout
        self._verdict = classify(fds)
        self._schema = table.schema
        self._attr_index: Dict[str, int] = {
            a: i for i, a in enumerate(self._schema)
        }
        self._name = table.name
        self._rows: Dict[TupleId, Row] = table.rows()
        self._weights: Dict[TupleId, float] = table.weights()
        self._used_ids = set(self._rows)
        self._next_auto_id = 1 + max(
            (tid for tid in self._rows if isinstance(tid, int)), default=0
        )
        self._table = self._snapshot()
        self._index = ConflictIndex(self._table, fds)
        # Component reuse across deltas: member-id tuple → (Component,
        # content key).  A tuple's row and weight never change while it
        # lives (sessions have no update op), so identical member ids
        # mean identical content — the sub-table, projected sub-index,
        # and cache key of an untouched component carry over verbatim
        # instead of being re-derived per delta.
        self._component_reuse: Dict[Tuple[TupleId, ...], Tuple[Component, Tuple]] = {}
        self._solutions: Dict[Tuple, _CachedSolve] = {}
        # Cross-session solution sharing: keys into a shared cache are
        # prefixed with everything besides component content that can
        # change a solve's outcome — Δ, the schema (it fixes which
        # columns each FD reads), and the exact-solver knobs (budget
        # fallbacks and node limits are sticky in cached methods) — so
        # two sessions share an entry exactly when serving it is
        # indistinguishable from re-solving.
        self._shared_solutions = solutions
        self._cache_scope = (
            (
                fds,
                self._schema,
                policy.node_limit,
                policy.exact_budget_s,
                policy.per_component_budget_s,
                policy.unit_cost_s,
            )
            if solutions is not None
            else None
        )
        # Worker-pool wiring: the pool is either owned (created lazily
        # from the ``parallel`` knob, closed with the session) or shared
        # (passed in by a daemon; the session only attaches/detaches its
        # mirror namespace).  This is the engine-state / process-
        # lifecycle split the server builds on.
        self._pool = pool
        self._pool_owned = pool is None
        self._pool_ready = False
        if session_key is not None:
            self._session_key = session_key
        elif pool is not None:
            self._session_key = f"session-{next(_SESSION_KEYS)}"
        else:
            from .exec import DEFAULT_SESSION_KEY

            self._session_key = DEFAULT_SESSION_KEY
        # When the index is kernel-backed, worker mirrors are kept in
        # *coded* rows (the codec stays live under session deltas): the
        # kept-id results are identical — solvers only observe the value
        # equality pattern — and the broadcast payloads shrink to small
        # ints.  Decided once, here, so reset and delta broadcasts agree
        # for the pool's whole life.
        self._pool_coded = self._index._codec is not None
        self._pool_disabled = False
        # Delta-maintained dirtiness bracket: per-component polynomial
        # [matching, BYE] brackets keyed by member-id tuple, invalidated
        # exactly like the component-reuse map, summed lazily so
        # :meth:`status` never touches a solver.
        self._bracket_by_key: Dict[Tuple[TupleId, ...], Tuple[float, float]] = {}
        self._bracket_totals: Tuple[float, float] = (0.0, 0.0)
        self._bracket_fresh = False
        self.stats = SessionStats()
        self.last_result: Optional[CleaningResult] = None

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

    def __len__(self) -> int:
        return len(self._rows)

    def cache_size(self) -> int:
        if self._shared_solutions is not None:
            return len(self._shared_solutions)
        return len(self._solutions)

    def clear_cache(self) -> None:
        """Drop all cached component repairs (they rebuild on demand).
        On a shared cache this clears *every* session's entries."""
        if self._shared_solutions is not None:
            self._shared_solutions.clear()
        self._solutions.clear()

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def _snapshot(self) -> Table:
        """A fresh immutable table over the current rows/weights.

        Trusted construction: the session validated every row on entry
        (arity via the index's insert, weights positive), so re-checking
        per snapshot would make each delta O(|T|·k) for no information.
        """
        return Table._from_trusted(
            self._schema,
            dict(self._rows),
            dict(self._weights),
            self._name,
            self._attr_index,
        )

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
        is applied (index, pool mirrors) but no repair is computed —
        useful for ingesting a burst before asking for one result.
        """
        rows = [self._normalise_row(r) for r in rows]
        if weights is not None and len(weights) != len(rows):
            raise ValueError("weights and rows have different lengths")
        if ids is not None:
            if len(ids) != len(rows):
                raise ValueError("ids and rows have different lengths")
            clashes = [tid for tid in ids if tid in self._rows]
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
        new_weights = [
            float(w) for w in (weights if weights is not None else [1.0] * len(rows))
        ]
        for weight in new_weights:
            if weight <= 0:
                raise ValueError(f"non-positive weight {weight}")
        new_ids = list(ids) if ids is not None else [
            self._allocate_id() for _ in rows
        ]
        # A re-appended identifier may carry different content than it
        # did in a past life; drop any reusable component that remembers
        # it (the content-addressed solution cache needs no such care).
        recycled = [tid for tid in new_ids if tid in self._used_ids]
        if recycled:
            self._invalidate_components(recycled)
        for tid, row, weight in zip(new_ids, rows, new_weights):
            self._index.insert(tid, row, weight)
            self._rows[tid] = row
            self._weights[tid] = weight
            self._used_ids.add(tid)
        self._table = self._snapshot()
        self._index.reanchor(self._table)
        self._bracket_fresh = False
        self.stats.appends += 1
        self.stats.tuples_appended += len(rows)
        if self._pool_ready and self._pool is not None and self._pool.alive and rows:
            delta_rows = self._mirror_rows(new_ids)
            delta_weights = dict(zip(new_ids, new_weights))
            if not self._pool.broadcast(
                ("append", delta_rows, delta_weights), key=self._session_key
            ):
                self._drop_pool()
        return self.repair() if repair else None

    def delete(
        self, ids: Iterable[TupleId], repair: bool = True
    ) -> Optional[CleaningResult]:
        """Delete tuples by identifier; see :meth:`append` for *repair*."""
        ids = list(ids)
        missing = [tid for tid in ids if tid not in self._rows]
        if missing:
            raise KeyError(
                f"unknown identifiers: {sorted(map(str, missing))}"
            )
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate identifiers in delete")
        self._invalidate_components(ids)
        for tid in ids:
            self._index.remove(tid)
            del self._rows[tid]
            del self._weights[tid]
        self._table = self._snapshot()
        self._index.reanchor(self._table)
        self._bracket_fresh = False
        self.stats.deletes += 1
        self.stats.tuples_deleted += len(ids)
        if self._pool_ready and self._pool is not None and self._pool.alive and ids:
            if not self._pool.broadcast(
                ("delete", tuple(ids)), key=self._session_key
            ):
                self._drop_pool()
        return self.repair() if repair else None

    def _invalidate_components(self, ids: Iterable[TupleId]) -> None:
        """Drop reusable components that remember any of *ids*.

        The reuse map assumes a member's row and weight are fixed for as
        long as its id appears in a component key.  A deleted id — which
        may later be re-appended with different content — breaks that
        assumption, so every component holding one is forgotten before
        the delta applies.  O(conflicting tuples) scan, only run when a
        delta actually touches a previously-seen id.
        """
        touched = set(ids)
        stale = [
            key
            for key in self._component_reuse
            if not touched.isdisjoint(key)
        ]
        for key in stale:
            del self._component_reuse[key]
        stale_brackets = [
            key
            for key in self._bracket_by_key
            if not touched.isdisjoint(key)
        ]
        for key in stale_brackets:
            del self._bracket_by_key[key]

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _decompose(self) -> Decomposition:
        """The current decomposition, reusing untouched components.

        Components whose member-id tuple already exists in the reuse map
        keep their sub-table, (lazily-bucketed) sub-index, and content
        key; only components the delta actually changed are re-projected.
        The assembled :class:`Decomposition` is content-identical to
        :func:`repro.core.decompose.decompose` on the current snapshot —
        component order, member order, and sub-instances all match, so
        everything downstream stays byte-identical to the batch path.
        """
        rows = self._rows
        weights = self._weights
        components: List[Component] = []
        reuse: Dict[Tuple[TupleId, ...], Tuple[Component, Tuple]] = {}
        for ordinal, ids in enumerate(self._index.components()):
            key = tuple(ids)
            cached = self._component_reuse.get(key)
            if cached is None:
                subtable = self._table.subset(ids)
                subindex = self._index.project(subtable, set(ids))
                component = Component(ordinal, key, subtable, subindex)
                content = tuple((tid, rows[tid], weights[tid]) for tid in key)
                cached = (component, content)
            else:
                cached[0].ordinal = ordinal
            reuse[key] = cached
            components.append(cached[0])
        self._component_reuse = reuse
        return Decomposition(
            table=self._table,
            fds=self._fds,
            index=self._index,
            components=components,
            consistent_ids=tuple(self._index.consistent_ids()),
        )

    def _component_key(
        self,
        method: str,
        member_ids: Tuple[TupleId, ...],
        epoch: Optional[float] = None,
    ) -> Tuple:
        """Cache key of one component solve: ``(method, content)``, or
        ``(method, epoch, content)`` when *epoch* is given.  The epoch is
        the scheduled wall-clock slice of an exact solve under a global
        budget: whether such a solve succeeds (and stays sticky on
        fallback) depends on its slice, which shifts as the schedule
        around the component changes — keying on it keeps cached
        fallbacks honest.  Legacy (no global budget) keys are unchanged,
        so existing sticky-fallback behaviour is untouched."""
        cached = self._component_reuse.get(tuple(member_ids))
        if cached is not None:
            content = cached[1]
        else:
            rows = self._rows
            weights = self._weights
            content = tuple(
                (tid, rows[tid], weights[tid]) for tid in member_ids
            )
        if epoch is not None:
            return (method, epoch, content)
        return (method, content)

    def _cache_lookup(self, key: Tuple) -> Optional[_CachedSolve]:
        if self._shared_solutions is not None:
            return self._shared_solutions.get((self._cache_scope, key))
        entry = self._solutions.get(key)
        if entry is not None:
            # Refresh recency for the LRU eviction order.
            self._solutions[key] = self._solutions.pop(key)
        return entry

    def _cache_store(self, key: Tuple, entry: _CachedSolve) -> None:
        if self._shared_solutions is not None:
            self._shared_solutions.put((self._cache_scope, key), entry)
            return
        self._solutions[key] = entry
        cap = self._max_cache_entries
        if cap is not None:
            evicted = 0
            while len(self._solutions) > cap:
                self._solutions.pop(next(iter(self._solutions)))
                evicted += 1
            if evicted and self._recorder.enabled:
                self._recorder.count(
                    "session.cache_evict", evicted, key=self._session_key
                )

    def _effective_lower_bound(
        self, entry: _CachedSolve, component, plan
    ) -> Optional[float]:
        """The report lower bound one component contributes: the cached
        matching bound, tightened to the LP relaxation bound when the
        current plan qualifies (:func:`repro.pipeline._lp_qualifies`).
        The LP bound is memoised on the cache entry on first use; both
        bounds are pure functions of component content, so hit and miss
        paths — and the batch pipeline — report the same number."""
        bound = entry.lower_bound
        if bound is None or not _lp_qualifies(
            plan, component.size, self._policy.threshold, self._guarantee
        ):
            return bound
        lp = entry.lp_bound
        if lp is None:
            lp = component.index.lp_lower_bound()
            if lp is not None:
                entry.lp_bound = lp
        if lp is not None and lp > bound:
            return lp
        return bound

    def _mirror_rows(self, ids: Iterable[TupleId]) -> Dict[TupleId, Row]:
        """The rows a worker mirror stores for *ids*: coded when the
        session's index carries a live codec, verbatim otherwise."""
        if self._pool_coded:
            coded_row = self._index._codec.coded_row
            return {tid: coded_row(tid) for tid in ids}
        rows = self._rows
        return {tid: rows[tid] for tid in ids}

    def _ensure_pool(self):
        if self._pool_disabled:
            return None
        if self._pool is None:
            # Owned pool: created lazily from the ``parallel`` knob and
            # bound to this session's namespace for its whole life.
            from .exec import PersistentWorkerPool

            pool = PersistentWorkerPool(self._parallel, policy=self._policy)
            if (
                pool.start()
                and pool.open_session(
                    self._session_key, self._schema, self._fds, self._policy
                )
                and pool.broadcast(
                    ("reset", self._mirror_rows(self._rows), dict(self._weights)),
                    key=self._session_key,
                )
            ):
                self._pool = pool
                self._pool_ready = True
            else:
                pool.close()
                self._pool_disabled = True
                self.stats.pool_fallbacks += 1
        elif not self._pool_ready:
            # Shared pool: attach this session's mirror namespace; the
            # full state ships once, deltas keep it synchronised.
            ok = (
                self._pool.start()
                and self._pool.open_session(
                    self._session_key, self._schema, self._fds, self._policy
                )
                and self._pool.broadcast(
                    ("reset", self._mirror_rows(self._rows), dict(self._weights)),
                    key=self._session_key,
                )
            )
            if ok:
                self._pool_ready = True
            else:
                self._pool_disabled = True
                self.stats.pool_fallbacks += 1
                return None
        if self._pool is not None and self._pool.alive:
            return self._pool
        return None

    def _drop_pool(self) -> None:
        """Stop using the pool: close it when owned, detach the mirror
        namespace when shared — a shared pool keeps serving its other
        sessions."""
        if self._pool is not None:
            if self._pool_owned:
                self._pool.close()
            elif self._pool_ready and self._pool.alive:
                self._pool.drop_session(self._session_key)
            self._pool = None
        self._pool_ready = False
        self._pool_disabled = True
        self.stats.pool_fallbacks += 1

    def _solve_misses(
        self, misses: List[Tuple[int, object, object]]
    ) -> Dict[int, Tuple[Tuple[TupleId, ...], str, float]]:
        """Solve the cache-missed components; returns ordinal →
        ``(kept ids, effective method, solve seconds)`` (effective ≠
        planned exactly when an exact solve fell back under its
        wall-clock budget).

        Each miss carries its :class:`~repro.core.decompose.ComponentPlan`;
        a plan with a budget ships it per task (the globally-scheduled
        slice, or the per-solve ceiling on the legacy path), one without
        defers to the namespace policy's per-solve ceiling.  On the warm pool when
        available (ids-only payloads), in-process otherwise; any pool
        failure falls back serially — the solvers are pure and the plan
        is the same either way, so the retry is safe and byte-identical.

        With an enabled recorder, each miss emits one ``solve`` trace
        record carrying the plan evidence and the measured seconds —
        timed inside the worker on the pool path, in-process on the
        serial path (where an untraced run skips the clock entirely).
        """
        from .exec import _solve_component

        rec = self._recorder
        solved: Dict[int, Tuple[Tuple[TupleId, ...], str, float]] = {}
        # An owned pool pays off once a batch has ≥ 2 misses; a shared
        # (daemon) pool is offloaded even for a single miss, so a slow
        # solve runs in a worker process and the caller's thread only
        # waits — keeping the daemon's event loop and every co-tenant
        # session responsive.
        want_pool = bool(misses) and (
            not self._pool_owned
            or (self._parallel is not None and self._parallel > 1
                and len(misses) > 1)
        )
        if want_pool:
            pool = self._ensure_pool()
            if pool is not None:
                tasks = [
                    (c.ids, plan.method) if plan.budget_s is None
                    else (c.ids, plan.method, plan.budget_s)
                    for _i, c, plan in misses
                ]
                try:
                    outcomes = pool.solve(
                        tasks,
                        timeout=self._pool_timeout,
                        key=self._session_key,
                    )
                except RuntimeError:
                    if pool.alive:
                        # One failed batch (worker-side exception or
                        # timeout): re-solve serially below, keep the
                        # pool for the next repair.
                        self.stats.pool_fallbacks += 1
                    else:
                        self._drop_pool()
                else:
                    for (i, _c, _p), outcome in zip(misses, outcomes):
                        solved[i] = outcome
                    self.stats.pool_solves += len(misses)
                    if rec.enabled:
                        self._record_solves(misses, solved, "pool")
                    return solved
        timed = rec.enabled
        for i, component, plan in misses:
            start = _perf_counter() if timed else 0.0
            kept, effective = _solve_component(
                component.table,
                self._fds,
                plan.method,
                self._policy.node_limit,
                index=component.index,
                budget_s=plan.budget_s,
            )
            elapsed = _perf_counter() - start if timed else 0.0
            solved[i] = (kept, effective, elapsed)
            self.stats.serial_solves += 1
        if rec.enabled:
            self._record_solves(misses, solved, "serial")
        return solved

    def _record_solves(self, misses, solved, path: str) -> None:
        """Emit one ``solve`` trace record per cache miss (plan evidence,
        effective method, measured seconds, serial-vs-pool path)."""
        for i, component, plan in misses:
            _kept, effective, secs = solved[i]
            self._recorder.solve_record(
                ordinal=i,
                size=component.size,
                edges=component.index.num_edges,
                planned=plan.method,
                effective=effective,
                actual_s=secs,
                path=path,
                context="session",
                plan=plan,
                key=str(self._session_key),
            )

    def repair(self) -> CleaningResult:
        """Re-repair the current table, re-solving only the components
        the deltas since the last call actually changed.

        The result is byte-identical to
        ``pipeline.clean(session.table, fds, guarantee=..., parallel=...,
        exact_threshold=..., exact_budget_s=...,
        per_component_budget_s=...)`` — same cleaned table, distance,
        dirtiness report, and portfolio label.  The schedule is re-planned
        per call (it is pure arithmetic over the current components);
        under a global budget an exact solve's cache key carries its
        scheduled slice, so a slice change — the schedule shifting as
        components come and go — re-solves rather than serving a result
        computed under a different ceiling.
        """
        rec = self._recorder
        with rec.span("session.repair", key=str(self._session_key)):
            with rec.span("phase.decompose"):
                decomp = self._decompose()
            with rec.span("phase.plan"):
                plans = decomp.plan_schedule(
                    self._verdict.tractable, self._guarantee, self._policy
                )
            methods = [plan.method for plan in plans]
            kept_lists: List[Optional[Tuple[TupleId, ...]]] = (
                [None] * len(methods)
            )
            lower_bounds: List[Optional[float]] = [None] * len(methods)
            misses: List[Tuple[int, object, object]] = []
            keys: Dict[int, Tuple] = {}
            for i, (component, plan) in enumerate(
                zip(decomp.components, plans)
            ):
                epoch = (
                    plan.budget_s
                    if self._policy.exact_budget_s is not None
                    and plan.method == "exact"
                    else None
                )
                key = self._component_key(plan.method, component.ids, epoch)
                keys[i] = key
                entry = self._cache_lookup(key)
                if entry is None:
                    misses.append((i, component, plan))
                else:
                    kept_lists[i] = entry.kept
                    lower_bounds[i] = self._effective_lower_bound(
                        entry, component, plan
                    )
                    methods[i] = entry.method
                    self.stats.cache_hits += 1
            if rec.enabled:
                session_tag = str(self._session_key)
                hits = len(methods) - len(misses)
                if hits:
                    rec.count("session.cache_hit", hits, key=session_tag)
                if misses:
                    rec.count(
                        "session.cache_miss", len(misses), key=session_tag
                    )
            with rec.span("phase.solve"):
                solved = self._solve_misses(misses)
            with rec.span("phase.merge"):
                for i, component, plan in misses:
                    kept, effective, _secs = solved[i]
                    kept_lists[i] = kept
                    methods[i] = effective
                    bound = (
                        component.index.matching_lower_bound()
                        if effective == "approx"
                        else None
                    )
                    entry = _CachedSolve(kept, effective, bound)
                    lower_bounds[i] = self._effective_lower_bound(
                        entry, component, plan
                    )
                    self._cache_store(keys[i], entry)
                    self.stats.cache_misses += 1
                result = _decomposed_outcome(
                    decomp, self._verdict, methods, kept_lists,
                    self._parallel, lower_bounds,
                )
        self.stats.repairs += 1
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    # Solver-free status: the delta-maintained dirtiness bracket
    # ------------------------------------------------------------------
    def _refresh_bracket(self) -> None:
        """Bring the per-component bracket cache up to date.

        Components whose member-id tuple survives from the last reading
        keep their cached ``[matching, BYE]`` bracket (member content is
        immutable while an id lives, and recycled ids invalidate their
        components eagerly — the same contract the component-reuse map
        relies on); only delta-touched components recompute, via one
        polynomial matching + Bar-Yehuda–Even pass each.  Projections
        are shared with :meth:`_decompose`'s reuse map, so a status
        reading right after a repair touches nothing at all.
        """
        if self._bracket_fresh:
            return
        fresh: Dict[Tuple[TupleId, ...], Tuple[float, float]] = {}
        lower = upper = 0.0
        for ids in self._index.components():
            key = tuple(ids)
            entry = self._bracket_by_key.get(key)
            if entry is None:
                cached = self._component_reuse.get(key)
                if cached is not None:
                    subtable, subindex = cached[0].table, cached[0].index
                else:
                    subtable = self._table.subset(key)
                    subindex = self._index.project(subtable, set(key))
                entry = _bracket_component(subindex, subtable)
            fresh[key] = entry
            lower += entry[0]
            upper += entry[1]
        self._bracket_by_key = fresh
        self._bracket_totals = (lower, upper)
        self._bracket_fresh = True

    def status(self) -> SessionStatus:
        """A dirtiness snapshot served without touching any solver.

        The bracket is the delta-maintained per-component polynomial
        ``[matching lower bound, Bar-Yehuda–Even upper bound]`` sum —
        the optimal deletion cost provably lies inside it — and every
        other field reads O(1) bookkeeping.  A monitoring endpoint can
        therefore poll ``status`` at any rate without ever queueing
        behind (or triggering) exact solves.
        """
        self._refresh_bracket()
        lower, upper = self._bracket_totals
        return SessionStatus(
            tuples=len(self._rows),
            total_weight=self._table.total_weight(),
            conflicts=self._index.num_edges,
            conflicting_tuples=self._index.conflicting_count,
            components=len(self._bracket_by_key),
            lower_bound=lower,
            upper_bound=upper,
            cache_entries=self.cache_size(),
            repairs=self.stats.repairs,
        )

    # ------------------------------------------------------------------
    # Serialisation: eviction and rehydration
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """A picklable snapshot from which :meth:`restore` rebuilds an
        equivalent session.

        Engine *state* serialises — rows, weights (in insertion order,
        which the mirrors and solvers observe), id-allocator bookkeeping,
        options, stats, and the private component cache.  Process
        *lifecycle* does not: pools and shared caches re-attach on
        restore, and the conflict index, kernel view, and component
        structures rebuild on demand (a rebuild equals the
        live-maintained index by the PR-1/PR-3 algebra properties, so a
        rehydrated session's repairs stay byte-identical to one that was
        never evicted).  Sessions on a shared :class:`SolutionCache`
        export no cache entries at all — their solves survive eviction
        *in the cache itself*, which is the point of content addressing.
        """
        return {
            "version": 1,
            "schema": self._schema,
            "name": self._name,
            "fds": self._fds,
            "rows": dict(self._rows),
            "weights": dict(self._weights),
            "used_ids": set(self._used_ids),
            "next_auto_id": self._next_auto_id,
            "options": {
                "guarantee": self._guarantee,
                "exact_threshold": self._policy.threshold,
                "exact_budget_s": self._policy.exact_budget_s,
                "per_component_budget_s": self._policy.per_component_budget_s,
                "unit_cost_s": self._policy.unit_cost_s,
                "parallel": self._parallel,
                "node_limit": self._policy.node_limit,
                "max_cache_entries": self._max_cache_entries,
                "pool_timeout": self._pool_timeout,
            },
            "solutions": (
                dict(self._solutions) if self._shared_solutions is None else {}
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
        they re-attach like pools rather than serialising)."""
        schema = tuple(state["schema"])
        table = Table._from_trusted(
            schema,
            dict(state["rows"]),
            dict(state["weights"]),
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
        if solutions is None:
            session._solutions.update(state["solutions"])
        session.stats = SessionStats(**state["stats"])
        return session

    def approx_bytes(self) -> int:
        """A cheap resident-memory estimate for admission control.

        Counts the dominant structures — rows, the conflict index +
        kernel view (both scale with the row count), and the private
        component cache — at calibrated per-entry costs rather than
        walking objects with ``sys.getsizeof`` (which would cost more
        than the eviction decision it feeds).  Entries on a shared
        :class:`SolutionCache` are accounted by the cache owner, not per
        session.
        """
        arity = len(self._schema)
        per_tuple = 120 + 64 * arity
        index_factor = 3  # rows + live index + kernel/codec arrays
        cached = (
            0
            if self._shared_solutions is not None
            else len(self._solutions) * (160 + 48 * arity)
        )
        return 512 + len(self._rows) * per_tuple * index_factor + cached

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (the session stays usable serially).
        An owned pool is stopped; a shared pool only sheds this
        session's mirror namespace and keeps serving other sessions."""
        if self._pool is not None:
            if self._pool_owned:
                self._pool.close()
            elif self._pool_ready and self._pool.alive:
                self._pool.drop_session(self._session_key)
            self._pool = None
        self._pool_ready = False
        self._pool_disabled = True

    def __enter__(self) -> "RepairSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"RepairSession({len(self)} tuples, {self._fds}, "
            f"{self._index.num_edges} conflicts, "
            f"cache={len(self._solutions)})"
        )
