"""Incrementally-maintained conflict substrate for FD repairs.

Every repair path in this library reduces to repeated violation detection
over a shrinking table: greedy vertex cover deletes one tuple at a time,
``OptSRepair`` recurses over sub-tables, the 2-approximation and the
assessment pipeline both need the full conflict graph.  The seed
implementation rebuilt the lhs/rhs hash groupings from scratch on every
call; this module materialises them once per ``(table, Δ)`` and keeps
them **live** under tuple removal and insertion.

A :class:`ConflictIndex` holds the *materialised conflict graph* with
degree and weight bookkeeping, plus, per (nontrivial) FD ``X → Y``, the
lhs grouping of the live tuples.  It has exactly one adjacency, in one
of two representations:

* **kernel-built** (the default): the
  :class:`~repro.core.kernel.ConflictKernel` CSR arrays, patched in
  place under mutation (tombstones, overflow adjacency, live degrees),
  and the per-FD grouping :func:`~repro.core.kernel.build_conflict_edges`
  computed on the coded columns (``lhs-key → row ints``).  No per-tuple
  container exists: neighbours, degrees, edges and components are
  served from the arrays.
* **dict-backed**: an adjacency map of sets plus a two-level bucket
  index ``lhs-key → rhs-key → {tuple ids}`` per FD — the same hash
  grouping :func:`repro.core.violations.violating_pairs_of_fd` streams
  over, made persistent.  This is the ``--no-kernel`` oracle and the
  representation of the small per-component projections
  (:meth:`project`), whose bucket half is built lazily.

:meth:`remove` evicts one tuple in O(degree + |Δ|) — the affected edges
and buckets only — instead of an O(|T|·|Δ|) rebuild, which is what makes
index-driven greedy deletion loops linear instead of quadratic.
:meth:`insert` is the symmetric counterpart: a new tuple probes its lhs
group per FD and gains exactly the conflict edges its rhs disagreement
implies, in O(lhs-group size + |Δ|) — the substrate of the streaming
:class:`repro.session.RepairSession`, which re-repairs only the
components a tuple delta touches.

The index quacks like :class:`repro.graphs.graph.Graph` for the read
access :func:`~repro.graphs.vertex_cover.bar_yehuda_even` and
:func:`~repro.graphs.vertex_cover.maximalize_independent_set` need
(``nodes`` / ``edges`` / ``weight`` / ``neighbors``), so those two
consume a live index directly.  The mutating algorithms
(:func:`~repro.graphs.vertex_cover.exact_min_weight_vertex_cover`,
:func:`~repro.graphs.vertex_cover.greedy_vertex_cover`) need a real
``Graph`` — materialise one with :meth:`graph`.

Instances cached on a table (via :meth:`repro.core.table.Table.conflict_index`)
are pristine and shared; call :meth:`copy` before mutating.
"""

from __future__ import annotations

import weakref
from itertools import compress, filterfalse
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graphs.graph import Graph
from . import kernel as _kernel
from .fd import FD, FDSet
from .table import Row, Table, TupleId, Value, checked_weight

__all__ = ["ConflictIndex"]


class _FDBuckets:
    """The live two-level hash grouping of one FD over the current tuples
    (dict-backed indexes only)."""

    __slots__ = ("fd", "groups", "keys")

    def __init__(self, fd: FD) -> None:
        self.fd = fd
        # lhs-key → rhs-key → set of live tuple ids
        self.groups: Dict[Row, Dict[Row, Set[TupleId]]] = {}
        # tuple id → (lhs-key, rhs-key), for O(1) eviction
        self.keys: Dict[TupleId, Tuple[Row, Row]] = {}

    def add(self, tid: TupleId, lhs_key: Row, rhs_key: Row) -> None:
        group = self.groups.get(lhs_key)
        if group is None:
            group = self.groups[lhs_key] = {}
        bucket = group.get(rhs_key)
        if bucket is None:
            bucket = group[rhs_key] = set()
        bucket.add(tid)
        self.keys[tid] = (lhs_key, rhs_key)

    def discard(self, tid: TupleId) -> None:
        keys = self.keys.pop(tid, None)
        if keys is None:
            return
        lhs_key, rhs_key = keys
        group = self.groups[lhs_key]
        bucket = group[rhs_key]
        bucket.remove(tid)
        if not bucket:
            del group[rhs_key]
            if not group:
                del self.groups[lhs_key]

    def copy(self) -> "_FDBuckets":
        dup = _FDBuckets(self.fd)
        dup.groups = {
            lhs_key: {rhs_key: set(bucket) for rhs_key, bucket in group.items()}
            for lhs_key, group in self.groups.items()
        }
        dup.keys = dict(self.keys)
        return dup


def _cross_pairs(
    fd: FD, parts: Iterable[Iterable[TupleId]]
) -> Iterator[Tuple[TupleId, TupleId, FD]]:
    """Every pair drawn from two different rhs parts of one lhs group."""
    parts = list(parts)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for t1 in parts[i]:
                for t2 in parts[j]:
                    yield t1, t2, fd


class ConflictIndex:
    """The materialised conflict graph of a table, with per-FD groupings.

    Parameters
    ----------
    table:
        The table to index.  The index snapshots the table's tuples at
        construction; subsequent :meth:`remove` calls shrink the *index*
        only (tables themselves are immutable).
    fds:
        The FD set Δ.  Trivial FDs are skipped (they cannot be violated).
    use_kernel:
        Build on the columnar kernel (default: the global switch, see
        :func:`repro.core.kernel.enabled`) or on the dict reference.
    """

    __slots__ = (
        "fds",
        "_source",
        "_buckets",
        "_live",
        "_position",
        "_adj",
        "_num_edges",
        "_removed_weight",
        "_fd_specs",
        "_arity",
        "_next_position",
        "_position_shared",
        "_lazy_bucket_table",
        "_conflicting",
        "_use_kernel",
        "_codec",
        "_kernel",
        "_groups",
        "_mask_cache",
    )

    def __init__(
        self, table: Table, fds: FDSet, use_kernel: Optional[bool] = None
    ) -> None:
        self.fds = fds
        self._source: "weakref.ref[Table]" = weakref.ref(table)
        self._live: Dict[TupleId, float] = dict(table._weights)
        self._next_position = len(self._live)
        self._position_shared = False
        self._num_edges = 0
        self._removed_weight = 0.0
        self._arity = len(table.schema)
        # Per nontrivial FD: (fd, sorted-lhs positions, sorted-rhs
        # positions).  Immutable and shared by copies/projections; the
        # position lists are what :meth:`insert` and the lazy projection
        # rebuild key rows with, without needing the source table's
        # attribute map.
        self._fd_specs: List[Tuple[FD, List[int], List[int]]] = [
            (
                fd,
                [table._index[a] for a in sorted(fd.lhs)],
                [table._index[a] for a in sorted(fd.rhs)],
            )
            for fd in fds
            if not fd.is_trivial
        ]
        if use_kernel is None:
            use_kernel = _kernel.enabled()
        self._use_kernel: bool = bool(use_kernel)
        self._mask_cache: Optional[Tuple[List[TupleId], List[float], List[int]]] = None
        self._lazy_bucket_table: Optional[Table] = None
        # _conflicting: live tuples with at least one conflict,
        # maintained under insert/remove so components() costs
        # O(conflicting) instead of O(|T|) — on realistic dirtiness (a
        # few % of tuples conflicting) that is the difference between
        # re-decomposing per streaming delta and scanning the whole
        # table each time.
        if self._use_kernel:
            self._build_with_kernel(table)
            return
        self._codec: Optional[_kernel.TableCodec] = None
        self._kernel: Optional[_kernel.ConflictKernel] = None
        self._groups: Optional[List[_kernel.Groups]] = None
        self._position: Dict[TupleId, int] = {
            tid: i for i, tid in enumerate(self._live)
        }
        self._adj: Optional[Dict[TupleId, Set[TupleId]]] = {
            tid: set() for tid in self._live
        }
        self._buckets: Optional[List[_FDBuckets]] = [
            self._build_fd_buckets(table, fd, rhs_pos)
            for fd, _lhs_pos, rhs_pos in self._fd_specs
        ]
        self._conflicting: Set[TupleId] = {
            tid for tid, nbrs in self._adj.items() if nbrs
        }

    def _build_with_kernel(self, table: Table) -> None:
        """The columnar build: intern columns once, group by integer
        keys, and keep the CSR arrays and the per-FD groupings as the
        index's only structures.

        Observably the same as the dict build (the kernel grouping is
        grouping by value equality, which is all the dict build
        observes).  The codec's row map doubles as the position map: a
        row index *is* the table position, and both grow by one per
        insert.
        """
        codec = _kernel.TableCodec.encode(table)
        edges, groups = _kernel.build_conflict_edges(codec, self._fd_specs)
        kern = _kernel.ConflictKernel(codec, edges)
        self._codec = codec
        self._kernel = kern
        self._groups = groups
        self._position = codec.row_index
        self._adj = None
        self._buckets = None
        self._num_edges = kern.num_edges
        self._conflicting = set(map(codec.ids.__getitem__, kern.conflicting_rows))

    def _build_fd_buckets(
        self, table: Table, fd: FD, rhs_pos: List[int]
    ) -> _FDBuckets:
        """Bucket every tuple by (lhs, rhs) projection and materialise the
        conflict edges this FD contributes (the dict build).

        *rhs_pos* holds the positions of the (canonically sorted) rhs
        attributes, resolved once per FD: projecting via raw row indexing
        keeps the build O(|T|·k) with no per-tuple attribute lookups.
        """
        buckets = _FDBuckets(fd)
        adj = self._adj
        rows = table._rows
        for lhs_key, ids in table.group_by(fd.lhs).items():
            if len(ids) == 1:
                tid = ids[0]
                row = rows[tid]
                buckets.add(tid, lhs_key, tuple(row[i] for i in rhs_pos))
                continue
            group: Dict[Row, List[TupleId]] = {}
            for tid in ids:
                row = rows[tid]
                rhs_key = tuple(row[i] for i in rhs_pos)
                buckets.add(tid, lhs_key, rhs_key)
                group.setdefault(rhs_key, []).append(tid)
            if len(group) < 2:
                continue
            parts = list(group.values())
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    for t1 in parts[i]:
                        adj_t1 = adj[t1]
                        for t2 in parts[j]:
                            if t2 not in adj_t1:
                                adj_t1.add(t2)
                                adj[t2].add(t1)
                                self._num_edges += 1
        return buckets

    def ensure_for(self, fds: FDSet, table: Optional[Table] = None) -> "ConflictIndex":
        """Guard for entry points accepting a prebuilt index: raise if
        this index was built for a different FD set, or — when *table*
        is given — from a different table object (either mismatch means
        a silently-wrong repair; both are easy to hit when batching
        several Δ or tables).  FD-set comparison is order-insensitive;
        the table check is by identity against the construction-time
        source (held weakly), so equal-content copies are rejected too —
        rebuild or re-fetch the index via ``table.conflict_index(fds)``
        in that case.
        """
        if fds != self.fds:
            raise ValueError(
                f"ConflictIndex was built for {self.fds}, not {fds}"
            )
        if table is not None and self._source() is not table:
            raise ValueError(
                "ConflictIndex was built from a different table than the "
                "one passed alongside it"
            )
        return self

    # ------------------------------------------------------------------
    # Read access (Graph-compatible where it matters)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, tid: TupleId) -> bool:
        return tid in self._live

    def ids(self) -> Tuple[TupleId, ...]:
        """Live tuple identifiers, in table order."""
        return tuple(self._live)

    # Graph-compatible alias, so vertex-cover algorithms accept an index.
    nodes = ids

    def weight(self, tid: TupleId) -> float:
        return self._live[tid]

    def total_weight(self, ids: Optional[Iterable[TupleId]] = None) -> float:
        """Total weight of the live tuples (or of the given subset)."""
        if ids is None:
            return sum(self._live.values())
        live = self._live
        return sum(live[tid] for tid in ids)

    @property
    def removed_weight(self) -> float:
        """Total weight of the tuples removed so far."""
        return self._removed_weight

    def _row(self, tid: TupleId) -> int:
        """The kernel row of live tuple *tid* (KeyError otherwise)."""
        if tid not in self._live:
            raise KeyError(tid)
        return self._codec.row_index[tid]

    def degree(self, tid: TupleId) -> int:
        if self._kernel is not None:
            return self._kernel.degree[self._row(tid)]
        return len(self._adj[tid])

    def neighbors(self, tid: TupleId) -> Set[TupleId]:
        """The live conflict partners of *tid* (treat as read-only)."""
        kern = self._kernel
        if kern is not None:
            ids = self._codec.ids
            return set(map(ids.__getitem__, kern.live_neighbors(self._row(tid))))
        return self._adj[tid]

    @property
    def num_edges(self) -> int:
        return self._num_edges

    conflict_count = num_edges

    def is_consistent(self) -> bool:
        """True iff no violating pair survives among the live tuples."""
        return self._num_edges == 0

    @property
    def conflicting_count(self) -> int:
        """Number of live tuples in at least one conflict — O(1)."""
        return len(self._conflicting)

    def conflicting_tuples(self) -> List[TupleId]:
        """Live tuples involved in at least one conflict, in table order."""
        return sorted(self._conflicting, key=self._position.__getitem__)

    def edges(self) -> List[Tuple[TupleId, TupleId]]:
        """Each conflict pair exactly once, in canonical table-position
        order (both across and within source tuples).

        The canonical order makes every order-sensitive consumer (greedy
        matching, the Bar-Yehuda–Even sweep) produce identical results on
        a live index and on a from-scratch rebuild of the same survivors
        — adjacency *sets* iterate differently depending on their
        insertion/removal history.
        """
        kern = self._kernel
        if kern is not None:
            ids = self._codec.ids
            return [(ids[u], ids[v]) for u, v in kern.iter_live_edges()]
        position = self._position
        out: List[Tuple[TupleId, TupleId]] = []
        for tid, nbrs in self._adj.items():
            p = position[tid]
            forward = [other for other in nbrs if position[other] > p]
            if forward:
                forward.sort(key=position.__getitem__)
                out.extend((tid, other) for other in forward)
        return out

    conflicting_ids = edges

    def _ensure_buckets(self) -> List[_FDBuckets]:
        """Materialise the per-FD buckets of a lazily-projected index.

        :meth:`project` defers bucket construction: component indexes
        produced during decomposition are consumed adjacency-only by the
        vertex-cover solvers (and, in a streaming session, cache-hit
        components are never solved at all), so re-deriving their buckets
        eagerly would be pure waste.  The keys are pure row projections,
        so rebuilding them here from the strongly-held sub-table and the
        shared per-FD position lists is exact — removals that happened
        while lazy need no replay, because only live tuples are bucketed.
        """
        buckets_list = self._buckets
        if buckets_list is None:
            rows = self._lazy_bucket_table._rows
            buckets_list = []
            for fd, lhs_pos, rhs_pos in self._fd_specs:
                buckets = _FDBuckets(fd)
                for tid in self._live:
                    row = rows[tid]
                    buckets.add(
                        tid,
                        tuple(row[i] for i in lhs_pos),
                        tuple(row[i] for i in rhs_pos),
                    )
                buckets_list.append(buckets)
            self._buckets = buckets_list
            self._lazy_bucket_table = None
        return buckets_list

    def violating_pairs(self) -> Iterator[Tuple[TupleId, TupleId, FD]]:
        """Yield ``(t1, t2, fd)`` per violated FD from the live groupings.

        Like :func:`repro.core.violations.violating_pairs` but served from
        the materialised groupings; a pair violating several FDs is
        yielded once per FD.
        """
        kern = self._kernel
        if kern is None:
            for buckets in self._ensure_buckets():
                for group in buckets.groups.values():
                    if len(group) > 1:
                        yield from _cross_pairs(buckets.fd, group.values())
            return
        alive = kern.alive
        codec = self._codec
        ids = codec.ids
        for (fd, _lhs_pos, rhs_pos), groups in zip(self._fd_specs, self._groups):
            rhs_of = codec.key_of(rhs_pos)
            for members in groups.values():
                if type(members) is int:
                    continue
                # Sets filled in table order, exactly like the dict
                # buckets, so a fresh build yields the same sequence.
                parts: Dict[int, Set[TupleId]] = {}
                for r in compress(members, map(alive.__getitem__, members)):
                    key = rhs_of(r)
                    part = parts.get(key)
                    if part is None:
                        parts[key] = {ids[r]}
                    else:
                        part.add(ids[r])
                if len(parts) > 1:
                    yield from _cross_pairs(fd, parts.values())

    # ------------------------------------------------------------------
    # Connected components (the decomposition substrate)
    # ------------------------------------------------------------------
    def components(
        self, roots: Optional[Iterable[TupleId]] = None
    ) -> List[List[TupleId]]:
        """Connected components of the live conflict graph, restricted to
        tuples with at least one conflict.

        Deterministic: components are listed by the table position of
        their earliest member, and members within a component are in
        table order.  Conflict-free tuples never appear — they belong to
        every repair verbatim (see :meth:`consistent_ids`).

        With *roots*, only the components holding one of those ids are
        swept (dead or conflict-free roots are skipped), listed by their
        earliest root.

        A kernel-built index sweeps its arrays
        (:func:`~repro.core.kernel.components_csr`), rooted at the live
        conflicting rows; row index is table position, so ascending row
        order is table order and the listing is identical.  The dict
        sweep below is the reference and serves projections and the
        ``--no-kernel`` path.
        """
        conflicting = self._conflicting
        if roots is not None:
            conflicting = conflicting.intersection(roots)
        kern = self._kernel
        if kern is not None:
            ids = self._codec.ids
            rows = sorted(map(self._position.__getitem__, conflicting))
            return [
                [ids[i] for i in members]
                for members in _kernel.components_csr(kern, rows)
            ]
        position = self._position
        adj = self._adj
        seen: Set[TupleId] = set()
        out: List[List[TupleId]] = []
        # Roots visited in table (position) order yield components listed
        # by earliest member, identically to a full-table scan — but the
        # sweep only ever touches conflicting tuples.  The frontier step
        # is C-level set arithmetic (adj[v] - seen) rather than a
        # per-neighbour membership loop; traversal order becomes
        # arbitrary, which the final member sort erases.
        for tid in sorted(conflicting, key=position.__getitem__):
            if tid in seen:
                continue
            stack = [tid]
            seen.add(tid)
            members: List[TupleId] = []
            while stack:
                current = stack.pop()
                members.append(current)
                fresh = adj[current] - seen
                if fresh:
                    seen |= fresh
                    stack.extend(fresh)
            members.sort(key=position.__getitem__)
            out.append(members)
        return out

    def consistent_ids(self) -> List[TupleId]:
        """Live tuples with no conflict, in table order — the tuples every
        S-repair keeps and every U-repair leaves untouched."""
        return list(filterfalse(self._conflicting.__contains__, self._live))

    def project(self, subtable: Table, ids: Set[TupleId]) -> "ConflictIndex":
        """The restriction of this index to *ids*, re-anchored on
        *subtable* (which must contain exactly those tuples).

        Intended for connected components, where the projection is exact:
        adjacency is closed under the component, and every surviving
        bucket entry is simply filtered.  The projected index is seeded
        into *subtable*'s derived cache, so per-component solvers calling
        ``subtable.conflict_index(fds)`` reuse it instead of re-bucketing
        — this is what makes decomposition O(conflicting tuples) on top
        of the one shared parent build.

        A projection is dict-backed whatever its parent: components are
        small, and the solvers read them through neighbour bitmasks
        (:meth:`_mask_view`) built from the adjacency sets.  Bucket
        projection is **lazy**: the vertex-cover solvers consume a
        component index adjacency-only, and a streaming session's
        cache-hit components are never solved at all, so the per-FD
        buckets are rebuilt from the (strongly held) sub-table's rows
        only if something actually reads or mutates them
        (:meth:`_ensure_buckets`).  Projection therefore costs the
        adjacency filter alone.
        """
        dup = object.__new__(ConflictIndex)
        dup.fds = self.fds
        dup._source = weakref.ref(subtable)
        live = self._live
        dup._live = {tid: live[tid] for tid in subtable.ids()}
        # Relative table order is preserved by subsetting, so sharing the
        # parent's position map keeps edges() canonical and cheap.
        dup._position = self._position
        dup._position_shared = True
        self._position_shared = True
        dup._next_position = self._next_position
        num_edges = 0
        adj: Dict[TupleId, Set[TupleId]] = {}
        conflicting: Set[TupleId] = set()
        kern = self._kernel
        if kern is not None:
            row_index = self._codec.row_index
            row_id = self._codec.ids.__getitem__
            live_neighbors = kern.live_neighbors

            def neighbors(tid: TupleId) -> Iterable[TupleId]:
                return map(row_id, live_neighbors(row_index[tid]))
        else:
            neighbors = self._adj.__getitem__
        for tid in dup._live:
            nbrs = ids.intersection(neighbors(tid))
            adj[tid] = nbrs
            if nbrs:
                conflicting.add(tid)
            num_edges += len(nbrs)
        dup._adj = adj
        dup._num_edges = num_edges // 2
        dup._conflicting = conflicting
        dup._removed_weight = 0.0
        dup._arity = self._arity
        dup._fd_specs = self._fd_specs
        # The fast-path flag carries over (components run the bitmask
        # BYE/exact paths over the filtered adjacency).
        dup._use_kernel = self._use_kernel
        dup._codec = None
        dup._kernel = None
        dup._groups = None
        dup._mask_cache = None
        dup._buckets = None
        dup._lazy_bucket_table = subtable
        subtable._cache.setdefault(("conflict_index", self.fds), dup)
        return dup

    def graph(self) -> Graph:
        """Materialise the live conflict graph as a mutable ``Graph``
        (for consumers that destructively edit it, e.g. the exact
        vertex-cover branch & bound)."""
        g = Graph()
        for tid, weight in self._live.items():
            g.add_node(tid, weight=weight)
        for t1, t2 in self.edges():
            g.add_edge(t1, t2)
        return g

    def _mask_view(self) -> Optional[Tuple[List[TupleId], List[float], List[int]]]:
        """Members, weights, and neighbour bitmasks of a small live index.

        The bitmask view the kernel fast paths share: bit *i* is the
        *i*-th live tuple.  Live order is always ascending table
        position (removals preserve order, inserts append), so bit order
        matches the canonical ``edges()`` order.  Masks past 64 tuples
        are multi-word Python ints — still C-level word arrays — so the
        view serves every component up to
        :data:`~repro.core.kernel.MAX_BITMASK_VERTICES` tuples.  ``None``
        when the kernel is off for this index or the index is too large
        for masks to pay off.
        """
        if not self._use_kernel or len(self._live) > _kernel.MAX_BITMASK_VERTICES:
            return None
        cached = self._mask_cache
        if cached is not None:
            return cached
        members = list(self._live)
        position = {tid: i for i, tid in enumerate(members)}
        neighbors = self.neighbors
        masks = [0] * len(members)
        for i, tid in enumerate(members):
            mask = 0
            for other in neighbors(tid):
                mask |= 1 << position[other]
            masks[i] = mask
        weights = [self._live[tid] for tid in members]
        view = (members, weights, masks)
        # Cached until the next mutation: assessment + exact solving of
        # one component would otherwise rebuild the same view three
        # times (BYE, matching bound, branch & bound).
        self._mask_cache = view
        return view

    def kernel_bye_cover(self) -> Optional[Set[TupleId]]:
        """Array fast path for :func:`~repro.graphs.vertex_cover.bar_yehuda_even`.

        A kernel-built index — pristine *or* incrementally patched —
        runs the local-ratio sweep over its flat CSR edge arrays (merged
        with the overflow adjacency after mutations); a small live index
        — the per-component case — over neighbour bitmasks.  All visit
        the edges in the same canonical order as the dict reference, so
        the cover is identical.  ``None`` means "no fast path; run the
        reference loop".
        """
        kern = self._kernel
        if kern is not None:
            ids = self._codec.ids
            return {ids[i] for i in _kernel.bye_cover_csr(kern)}
        view = self._mask_view()
        if view is None:
            return None
        members, weights, masks = view
        cover = _kernel.bye_cover_masks(weights, masks)
        out: Set[TupleId] = set()
        while cover:
            low = cover & -cover
            out.add(members[low.bit_length() - 1])
            cover ^= low
        return out

    def kernel_greedy_survivors(self) -> Optional[Set[TupleId]]:
        """Array fast path for the greedy deletion loop of
        :func:`repro.core.approx.greedy_s_repair`: run the lazy-heap
        weight/degree loop over the kernel view (or the mask view of a
        small live index) and return the surviving tuple ids.  ``None``
        means "no fast path; run the reference loop on an index copy".
        """
        kern = self._kernel
        if kern is not None:
            ids = self._codec.ids
            removed = _kernel.greedy_cover_csr(kern)
            # One C-level copy minus the (few) removed ids — never a
            # per-live-tuple membership loop.
            return set(self._live).difference(ids[r] for r in removed)
        view = self._mask_view()
        if view is None:
            return None
        members, weights, masks = view
        removed_mask = _kernel.greedy_cover_masks(
            weights, masks, [str(tid) for tid in members]
        )
        return {
            tid for i, tid in enumerate(members) if not (removed_mask >> i) & 1
        }

    def kernel_maximalize(self, independent: Set[TupleId]) -> Optional[Set[TupleId]]:
        """Array fast path for
        :func:`~repro.graphs.vertex_cover.maximalize_independent_set`
        (same candidate order and blocking test, hence the identical
        maximal set).  ``None`` means "no fast path; run the reference".
        """
        kern = self._kernel
        if kern is not None:
            return _kernel.mis_maximalize_csr(kern, independent)
        view = self._mask_view()
        if view is None:
            return None
        members, weights, masks = view
        position = {tid: i for i, tid in enumerate(members)}
        mask = 0
        for tid in independent:
            mask |= 1 << position[tid]
        grown = _kernel.mis_maximalize_masks(
            weights, masks, [str(tid) for tid in members], mask
        )
        return {members[i] for i in _kernel._bits_ascending(grown)}

    def matching_lower_bound(self) -> float:
        """Admissible deletion-cost bound: greedy tuple-disjoint matching
        over the conflict edges, paying the lighter endpoint per pair.

        Delegates to the shared matching-bound implementation in
        :mod:`repro.graphs.vertex_cover`, which only needs the
        ``edges()``/``weight()`` interface this index provides; small
        kernel-backed indexes answer over neighbour bitmasks (same edge
        order, same arithmetic, same bound).
        """
        view = self._mask_view()
        if view is not None:
            _members, weights, masks = view
            full = (1 << len(weights)) - 1
            return _kernel._matching_lower_bound_masks(full, weights, masks)
        from ..graphs.vertex_cover import _matching_lower_bound

        return _matching_lower_bound(self)

    def lp_lower_bound(self) -> Optional[float]:
        """LP-relaxation lower bound on the deletion cost, or ``None``.

        The half-integral vertex-cover LP optimum over the live conflict
        graph (see :func:`~repro.core.kernel.lp_half_integral_bound`):
        always ≥ the matching bound and ≤ the exact optimum, so
        ``max(matching, LP)`` is a strictly tighter-or-equal bracket
        floor — strictly tighter exactly on components whose matching
        bound is not LP-optimal (odd cycles being the canonical case).

        ``None`` past :data:`~repro.core.kernel.LP_BOUND_MAX_VERTICES`
        live tuples, where the flow computation stops paying for itself
        — callers keep the matching bound.  Vertices are numbered by
        live (table) order on both the mask-view and dict arms, and the
        shared core sorts the edge list, so kernel-backed and reference
        indexes return the bit-identical float.
        """
        n = len(self._live)
        if n > _kernel.LP_BOUND_MAX_VERTICES:
            return None
        if self._num_edges == 0:
            return 0.0
        view = self._mask_view()
        if view is not None:
            _members, weights, masks = view
            edge_list = []
            for i, mask in enumerate(masks):
                forward = (mask >> (i + 1)) << (i + 1)
                while forward:
                    low = forward & -forward
                    forward ^= low
                    edge_list.append((i, low.bit_length() - 1))
            return _kernel.lp_half_integral_bound(weights, edge_list)
        members = list(self._live)
        rank = {tid: i for i, tid in enumerate(members)}
        weights = [self._live[tid] for tid in members]
        edge_list = [(rank[u], rank[v]) for u, v in self.edges()]
        return _kernel.lp_half_integral_bound(weights, edge_list)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def remove(self, tid: TupleId) -> None:
        """Evict *tid*, updating the adjacency incrementally.

        O(degree(tid) + |Δ|): only the edges and buckets touching *tid*
        are visited — never the rest of the table.  A kernel-built index
        tombstones the row and decrements its neighbours' live degrees
        (:meth:`~repro.core.kernel.ConflictKernel.apply_remove`); its lhs
        groupings keep the dead row until compaction, filtered by
        ``alive`` meanwhile.  The cached mask view is per-state and
        rebuilds on demand.
        """
        weight = self._live.pop(tid, None)
        if weight is None:
            raise KeyError(f"unknown or already-removed identifier {tid!r}")
        self._mask_cache = None
        self._removed_weight += weight
        conflicting = self._conflicting
        conflicting.discard(tid)
        kern = self._kernel
        if kern is not None:
            row = self._codec.row_index[tid]
            self._num_edges -= kern.degree[row]
            ids = self._codec.ids
            for other in kern.apply_remove(row):
                conflicting.discard(ids[other])
            if kern.should_compact():
                self.refresh_kernel()
            return
        nbrs = self._adj.pop(tid)
        self._num_edges -= len(nbrs)
        adj = self._adj
        for other in nbrs:
            other_nbrs = adj[other]
            other_nbrs.remove(tid)
            if not other_nbrs:
                conflicting.discard(other)
        # While the buckets are still lazy there is nothing to maintain:
        # materialisation only ever buckets the tuples live at that time.
        if self._buckets is not None:
            for buckets in self._buckets:
                buckets.discard(tid)

    def remove_many(self, ids: Iterable[TupleId]) -> None:
        for tid in ids:
            self.remove(tid)

    def insert(
        self, tid: TupleId, row: Sequence[Value], weight: float = 1.0
    ) -> int:
        """Add a tuple, updating the groupings and adjacency
        incrementally — the symmetric counterpart of :meth:`remove`.

        The new tuple joins, per FD, the group of its lhs projection and
        gains a conflict edge to every live tuple sharing its lhs key
        under a different rhs key (deduplicated across FDs, exactly as
        the from-scratch build does).  Cost: O(lhs-group size + |Δ|).

        The tuple is positioned *after* every tuple ever seen, matching a
        table that appends new rows at the end — so after any interleaving
        of inserts and removals the canonical :meth:`edges` order (and
        hence every order-sensitive consumer) agrees with a from-scratch
        rebuild on the corresponding table.  Returns the number of
        conflict edges the insertion created.
        """
        if tid in self._live:
            raise ValueError(f"identifier {tid!r} is already live")
        row = tuple(row)
        if len(row) != self._arity:
            raise ValueError(
                f"tuple {tid!r} has arity {len(row)}, index expects {self._arity}"
            )
        weight = checked_weight(weight, tid)
        try:
            hash(row)  # an unhashable value must fail before any mutation
        except TypeError:
            raise ValueError(
                f"tuple {tid!r} holds an unhashable value"
            ) from None
        buckets_list = self._ensure_buckets() if self._kernel is None else None
        self._mask_cache = None
        if self._position_shared and tid in self._position:
            # Copy-on-write: the position map may be shared with the
            # pristine cached index, a projection's parent, or sibling
            # copies.  Appending an entry for a brand-new identifier is
            # safe (sharers only ever look up their own live tuples), but
            # *re-positioning* an identifier another holder may still
            # have live would corrupt its canonical edge order — so that
            # is the case that forces a private map.
            self._position = dict(self._position)
            self._position_shared = False
            if self._codec is not None:
                self._codec.row_index = self._position
        self._live[tid] = weight
        self._position[tid] = self._next_position
        self._next_position += 1
        if buckets_list is None:
            new_edges = self._insert_row(tid, row, weight)
        else:
            new_edges = self._insert_dict(tid, row, buckets_list)
        self._num_edges += new_edges
        return new_edges

    def _insert_row(self, tid: TupleId, row: Row, weight: float) -> int:
        """Kernel arm of :meth:`insert`: intern the row, probe each FD's
        lhs group for live rows with a different rhs key, and graft the
        edges onto the kernel's overflow adjacency."""
        codec = self._codec
        kern = self._kernel
        r = codec.append_row(tid, row, weight)
        alive = kern.alive
        partners: Set[int] = set()
        for (_fd, lhs_pos, rhs_pos), groups in zip(self._fd_specs, self._groups):
            key = codec.key_of(lhs_pos)(r)
            members = groups.get(key)
            if members is None:
                groups[key] = r
                continue
            if type(members) is int:
                if not alive[members]:
                    groups[key] = r
                    continue
                members = [members]
            rhs_of = codec.key_of(rhs_pos)
            rhs_key = rhs_of(r)
            for other in members:
                if alive[other] and rhs_of(other) != rhs_key:
                    partners.add(other)
            # A fresh list, never an in-place append: copies share lists.
            groups[key] = members + [r]
        kern.apply_insert(r, sorted(partners))
        if partners:
            ids = codec.ids
            self._conflicting.add(tid)
            self._conflicting.update(map(ids.__getitem__, partners))
        if kern.should_compact():
            self.refresh_kernel()
        return len(partners)

    def _insert_dict(
        self, tid: TupleId, row: Row, buckets_list: List[_FDBuckets]
    ) -> int:
        """Dict arm of :meth:`insert`: probe and join the per-FD buckets."""
        nbrs: Set[TupleId] = set()
        self._adj[tid] = nbrs
        adj = self._adj
        for buckets, (_fd, lhs_pos, rhs_pos) in zip(buckets_list, self._fd_specs):
            lhs_key = tuple(row[i] for i in lhs_pos)
            rhs_key = tuple(row[i] for i in rhs_pos)
            group = buckets.groups.get(lhs_key)
            if group:
                for other_rhs, bucket in group.items():
                    if other_rhs != rhs_key:
                        for other in bucket:
                            if other not in nbrs:
                                nbrs.add(other)
                                adj[other].add(tid)
            buckets.add(tid, lhs_key, rhs_key)
        if nbrs:
            self._conflicting.add(tid)
            self._conflicting.update(nbrs)
        return len(nbrs)

    def reanchor(self, table: Table) -> "ConflictIndex":
        """Re-point this index at an equal-content *table* snapshot.

        The streaming session fast path: the session mutates one
        long-lived index via :meth:`insert`/:meth:`remove` while its
        table is re-snapshotted per delta (tables are immutable), so the
        construction-time source the :meth:`ensure_for` identity check
        pins is stale by design.  Re-anchoring is only sound when the
        snapshot holds exactly the live tuples — verified here in O(n)
        (C-level key-set comparison) before the weakref moves.
        """
        if table._rows.keys() != self._live.keys():
            raise ValueError(
                "reanchor target does not hold exactly the live tuples"
            )
        self._source = weakref.ref(table)
        return self

    def refresh_kernel(self) -> bool:
        """Compact the kernel: rebuild the CSR arrays over the live rows
        and prune dead rows from the lhs groupings.

        Folds accumulated tombstones and overflow adjacency back into
        plain flat arrays — O(live tuples + live edges).  Called
        automatically once churn passes
        :meth:`~repro.core.kernel.ConflictKernel.should_compact`; public
        because the streaming benchmarks use it as the rebuild-per-delta
        comparison arm.  Returns ``False`` when this index has no kernel
        (kernel off, or a projection).
        """
        kern = self._kernel
        if kern is None:
            return False
        n = len(self._codec.ids)
        # iter_live_edges is already in ascending (u, v) order, so the
        # packed codes come out sorted.
        packed = [u * n + v for u, v in kern.iter_live_edges()]
        alive = kern.alive
        self._kernel = _kernel.ConflictKernel(
            self._codec, packed, alive=bytearray(alive)
        )
        for groups in self._groups:
            for key, members in list(groups.items()):
                if type(members) is int:
                    if not alive[members]:
                        del groups[key]
                    continue
                live = list(compress(members, map(alive.__getitem__, members)))
                if not live:
                    del groups[key]
                elif len(live) == 1:
                    groups[key] = live[0]
                elif len(live) < len(members):
                    groups[key] = live
        return True

    def copy(self) -> "ConflictIndex":
        """An independent, mutable duplicate of the current live state."""
        dup = object.__new__(ConflictIndex)
        dup.fds = self.fds
        dup._source = self._source
        dup._live = dict(self._live)
        dup._next_position = self._next_position
        dup._num_edges = self._num_edges
        dup._removed_weight = self._removed_weight
        dup._conflicting = set(self._conflicting)
        dup._arity = self._arity
        dup._fd_specs = self._fd_specs
        dup._use_kernel = self._use_kernel
        dup._mask_cache = None
        dup._lazy_bucket_table = self._lazy_bucket_table
        kern = self._kernel
        if kern is not None:
            codec = self._codec.copy()
            dup._codec = codec
            dup._kernel = kern.copy(codec)
            # Shallow: group lists are replaced, never appended to.
            dup._groups = [dict(groups) for groups in self._groups]
            dup._position = codec.row_index
            dup._position_shared = False
            dup._adj = None
            dup._buckets = None
            return dup
        # Positions only ever grow; share until an insert re-positions
        # (copy-on-write, see :meth:`insert`).
        dup._position = self._position
        dup._position_shared = True
        self._position_shared = True
        dup._adj = {tid: set(nbrs) for tid, nbrs in self._adj.items()}
        dup._codec = None
        dup._kernel = None
        dup._groups = None
        dup._buckets = (
            [buckets.copy() for buckets in self._buckets]
            if self._buckets is not None
            else None
        )
        return dup

    def __repr__(self) -> str:
        return (
            f"ConflictIndex({len(self)} live tuples, "
            f"{self._num_edges} conflicts, {len(self._fd_specs)} FDs)"
        )
