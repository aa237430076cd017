"""Interned columnar kernel: integer-coded rows, CSR adjacency, bitmasks.

Every hot path of the library — ``Table.group_by``, the
:class:`~repro.core.conflict_index.ConflictIndex` build, component
extraction, and exact vertex cover — reduces to hash grouping and
conflict-graph traversal over dict-of-sets structures keyed by
arbitrary-hashable value tuples.  Those structures are semantically
right (FD satisfaction only observes the *equality pattern* of values)
but pay repeated tuple allocation, tuple hashing, and per-element set
overhead in the inner loops.

This module is the representation-level answer:

* :class:`TableCodec` interns each column's values to dense integer
  codes (``code 0`` is the column's first-seen value, in table order)
  and each tuple identifier to a dense row index.  Because codes are
  assigned in first-seen order, every order-sensitive consumer
  downstream — ``group_by`` insertion order, ``distinct_projection``,
  the dichotomy recursion's block order — behaves identically on coded
  rows and on the original values: the coded table is FD-equivalent
  *and* iteration-equivalent.
* :func:`build_conflict_edges` runs the per-FD hash grouping of the
  conflict-index build on the coded columns: grouping keys are single
  machine ints (fixed-width packings of column codes), so the grouping
  loop allocates no tuples and hashes no strings.  The grouping it
  computes is kept — row ints per lhs key, a bare int for a singleton
  group — and is what an insert probes.
* :class:`ConflictKernel` holds the resulting conflict graph as
  CSR-style flat adjacency arrays (``indptr`` / ``indices``) with
  parallel weight and degree arrays.  It is the *only* adjacency of a
  kernel-built :class:`~repro.core.conflict_index.ConflictIndex`:
  neighbours, degrees, edges, components and the Bar-Yehuda–Even /
  greedy / maximalisation fast paths all read it.
* :class:`BitsetVC` is a memoised multi-word bitset branch & bound for
  components of at most :data:`MAX_BITMASK_VERTICES` vertices: component
  vertices map to bits of one Python int, neighbour masks are
  precomputed, and a subset-memo on the remaining-vertices mask prunes
  re-entered states.  Python ints *are* the multi-word bitset: CPython
  stores them as little-endian arrays of 30-bit digits, so ``&``, ``|``,
  shifts and ``bit_count`` over a 512-vertex mask are C loops over ~18
  machine words — the "fixed-width tuple of words" representation
  without a Python-level word loop.  The solver is a *faithful mirror*
  of :func:`repro.graphs.vertex_cover.exact_min_weight_vertex_cover` —
  same simplifications, same branch order, same tie-breaks, same
  floating-point summation order — so it returns the **identical
  cover**, not merely one of equal weight (pinned by the property tests
  in ``tests/test_kernel.py``), at any width.  A wall-clock ``budget_s``
  raises :class:`~repro.graphs.vertex_cover.ExactBudgetExceeded` so
  pathological dense components fall back to the polynomial bounds.
* The approximation tier runs array-native too:
  :func:`greedy_cover_csr` / :func:`greedy_cover_masks` mirror the lazy
  min-heap deletion loop of :func:`repro.core.approx.greedy_s_repair`
  on flat weight/degree arrays, and :func:`mis_maximalize_csr` /
  :func:`mis_maximalize_masks` mirror
  :func:`repro.graphs.vertex_cover.maximalize_independent_set`.
* A :class:`ConflictKernel` stays **live** under index mutation:
  :meth:`~ConflictKernel.apply_remove` tombstones a row (``alive``
  byte-flags, live degree/edge bookkeeping) and
  :meth:`~ConflictKernel.apply_insert` grafts an appended row's edges
  onto an overflow adjacency, so streaming sessions keep every array
  fast path across delta batches; the owning index compacts the view
  (full CSR rebuild over the live rows) once churn passes
  :meth:`~ConflictKernel.should_compact`.

The dict paths everywhere remain the semantic reference: the kernel is
an acceleration layer, switchable off globally (:func:`set_enabled`,
the CLI's ``--no-kernel``) or per block (:func:`disabled`), and every
result is byte-identical either way.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from collections import defaultdict
from itertools import accumulate, compress, count, repeat
from operator import floordiv, itemgetter, mod, ne
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..graphs.vertex_cover import ExactBudgetExceeded
from .table import Row, Table, TupleId, Value

__all__ = [
    "MAX_BITMASK_VERTICES",
    "LP_BOUND_MAX_VERTICES",
    "TableCodec",
    "ConflictKernel",
    "BitsetVC",
    "ExactBudgetExceeded",
    "enabled",
    "set_enabled",
    "disabled",
    "build_conflict_edges",
    "bitmask_vertex_cover",
    "bye_cover_csr",
    "bye_cover_masks",
    "components_csr",
    "greedy_cover_csr",
    "greedy_cover_masks",
    "lp_half_integral_bound",
    "mis_maximalize_csr",
    "mis_maximalize_masks",
]

#: Largest component the bitset branch & bound accepts.  One Python int
#: carries one bit per component vertex; past 64 vertices the masks spill
#: into multiple 30-bit digits, whose boolean ops CPython still runs as C
#: word loops — profiled break-even against the graph-copying reference
#: sits far beyond this cap, which exists to bound the *memo's* per-entry
#: key size and the O(n²) neighbour-mask build, not the mask arithmetic.
#: The portfolio's ``EXACT_COMPONENT_THRESHOLD`` (the default exact cut)
#: is deliberately far below; the headroom up to 512 serves raised
#: ``exact_threshold=`` runs and the mask-view approximation fast paths.
MAX_BITMASK_VERTICES = 512

#: Search-tree entries between deadline reads of a budgeted solve —
#: mirrors ``repro.graphs.vertex_cover._BUDGET_CHECK_INTERVAL``.
_BUDGET_CHECK_INTERVAL = 256

#: Largest component the LP-relaxation lower bound is computed for.  The
#: bound runs a blocking-flow computation on the bipartite double cover
#: (O(E·√V)-ish in practice); past this size the polynomial matching
#: bound stands alone — the bracket stays valid, just looser.
LP_BOUND_MAX_VERTICES = 1024

#: Bits per column code in a multi-column grouping key.  The width is
#: fixed rather than the column's current alphabet size, so a key stays
#: the same after :meth:`TableCodec.append_row` grows an alphabet — an
#: appended row keys into the same group as an equal row of the build.
#: A code is below the row count, so 32 bits never overflow into the
#: neighbouring column.
KEY_BITS = 32

#: One FD's kept lhs grouping: key → row (singleton group) or the
#: ascending list of rows sharing the key.  Lists are never mutated in
#: place, so copies of an index may share them.
Groups = Dict[int, Union[int, List[int]]]

_ENABLED = True


def enabled() -> bool:
    """True iff the columnar kernel is globally enabled (the default)."""
    return _ENABLED


def set_enabled(value: bool) -> None:
    """Switch the kernel on/off globally (the CLI's ``--no-kernel``).

    Only affects structures built *after* the switch: a
    :class:`~repro.core.conflict_index.ConflictIndex` snapshots the flag
    at construction, so one index is consistently kernel-backed or
    consistently dict-backed for its whole life.
    """
    global _ENABLED
    _ENABLED = bool(value)


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block on the dict reference paths (tests, benchmarks)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


# ---------------------------------------------------------------------------
# Column interning
# ---------------------------------------------------------------------------

class TableCodec:
    """Dense integer coding of a table: row indices and column codes.

    ``ids[i]`` is the tuple identifier of row ``i`` (rows in table
    order), ``columns[j][i]`` the integer code of row ``i``'s value in
    column ``j``, ``decoders[j][code]`` the original value, and
    ``weights[i]`` the tuple weight.  Codes are assigned in first-seen
    table order, so equal values share a code (``FreshValue`` cells
    intern by identity, exactly matching their equality semantics) and
    code order is first-seen order.

    The codec stays **live** under index mutation:
    :meth:`append_row` interns a new tuple's values (extending the
    per-column intern maps), and removals simply leave their row slots
    behind — the owning index's live-tuple set governs which rows
    matter, so a stale slot is never read.
    """

    __slots__ = (
        "schema", "ids", "row_index", "columns", "decoders", "weights",
        "_interns",
    )

    def __init__(
        self,
        schema: Tuple[str, ...],
        ids: List[TupleId],
        row_index: Dict[TupleId, int],
        columns: List[List[int]],
        decoders: List[List[Value]],
        weights: List[float],
        interns: List[Dict[Value, int]],
    ) -> None:
        self.schema = schema
        self.ids = ids
        self.row_index = row_index
        self.columns = columns
        self.decoders = decoders
        self.weights = weights
        self._interns = interns

    @classmethod
    def encode(cls, table: Table) -> "TableCodec":
        """Intern *table* into dense row indices and column codes.

        Near-C-speed per column: ``dict.fromkeys`` dedups the column in
        first-seen order (the code assignment the order-sensitivity
        contract requires), and ``map(intern.__getitem__, …)`` codes the
        whole column without a Python-level inner loop.
        """
        schema = table.schema
        rows = table._rows
        ids: List[TupleId] = list(rows)
        # Keyed lookup, not .values(): _from_trusted only promises
        # matching key *sets*, and a weight mis-assignment here would be
        # silent.
        weights: List[float] = list(map(table._weights.__getitem__, ids))
        interns: List[Dict[Value, int]] = []
        decoders: List[List[Value]] = []
        columns: List[List[int]] = []
        values = list(rows.values())
        # One itemgetter pass per column: transposing with zip(*values)
        # would allocate a GC-tracked iterator per row.
        for j in range(len(schema)):
            column_values = list(map(itemgetter(j), values))
            intern = dict(zip(dict.fromkeys(column_values), count()))
            interns.append(intern)
            decoders.append(list(intern))
            columns.append(list(map(intern.__getitem__, column_values)))
        row_index = dict(zip(ids, count()))
        return cls(schema, ids, row_index, columns, decoders, weights, interns)

    def __len__(self) -> int:
        return len(self.ids)

    def append_row(self, tid: TupleId, row: Sequence[Value], weight: float) -> int:
        """Intern one appended tuple; returns its new row index."""
        index = len(self.ids)
        self.ids.append(tid)
        self.row_index[tid] = index
        self.weights.append(float(weight))
        for j, value in enumerate(row):
            intern = self._interns[j]
            code = intern.get(value)
            if code is None:
                code = intern[value] = len(intern)
                self.decoders[j].append(value)
            self.columns[j].append(code)
        return index

    def coded_row(self, tid: TupleId) -> Row:
        """The integer-coded row of *tid* (a tuple of column codes)."""
        i = self.row_index[tid]
        return tuple(column[i] for column in self.columns)

    def decode_row(self, i: int) -> Row:
        """Original values of row *i*."""
        return tuple(
            self.decoders[j][column[i]] for j, column in enumerate(self.columns)
        )

    def decode_table(self, name: str = "R") -> Table:
        """Reconstruct the encoded table (the round-trip the property
        tests pin: ``decode_table(encode(t)) == t``)."""
        rows = {tid: self.decode_row(i) for i, tid in enumerate(self.ids)}
        weights = {tid: self.weights[i] for i, tid in enumerate(self.ids)}
        return Table(self.schema, rows, weights, name=name)

    def copy(self) -> "TableCodec":
        """An independent codec over the same rows (C-level list and
        dict copies): :meth:`append_row` on either side leaves the other
        untouched."""
        return TableCodec(
            self.schema,
            list(self.ids),
            dict(self.row_index),
            [list(column) for column in self.columns],
            [list(decoder) for decoder in self.decoders],
            list(self.weights),
            [dict(intern) for intern in self._interns],
        )

    def combined_codes(self, positions: Sequence[int]) -> List[int]:
        """One machine-int grouping key per row for the given columns.

        The codes of ``positions = [p1, …, pk]`` packed :data:`KEY_BITS`
        apart — a bijection on code tuples, so grouping by the combined
        int is exactly grouping by the value tuple, with no tuple
        allocation and single-int hashing.  The fixed width keeps keys
        valid across :meth:`append_row` (see :meth:`key_of`).
        """
        if not positions:
            return [0] * len(self.ids)
        first = self.columns[positions[0]]
        if len(positions) == 1:
            return first  # shared read-only: callers never mutate keys
        keys = list(first)
        for p in positions[1:]:
            keys = [k << KEY_BITS | c for k, c in zip(keys, self.columns[p])]
        return keys

    def key_of(self, positions: Sequence[int]) -> Callable[[int], int]:
        """Row index → the :meth:`combined_codes` key of that row, for
        rows appended after the bulk keys were computed too."""
        columns = [self.columns[p] for p in positions]
        if not columns:
            return lambda _row: 0
        if len(columns) == 1:
            return columns[0].__getitem__

        def key(row: int) -> int:
            out = 0
            for column in columns:
                out = out << KEY_BITS | column[row]
            return out

        return key


# ---------------------------------------------------------------------------
# Conflict-graph construction on coded columns
# ---------------------------------------------------------------------------

def build_conflict_edges(
    codec: TableCodec,
    fd_specs: Sequence[Tuple[object, Sequence[int], Sequence[int]]],
) -> Tuple[List[int], List[Groups]]:
    """All conflict edges implied by *fd_specs*, plus each FD's lhs
    grouping.

    Rows sharing an FD's lhs key but disagreeing on its rhs key
    conflict.  Edges are deduplicated across FDs and returned as
    ``u * n + v`` with ``u < v`` row indices — sorted, which is exactly
    canonical ``(position(u), position(v))`` order.

    The grouping of each FD (see :data:`Groups`) is returned alongside
    for the owning index to probe on insert.  It is built mostly at C
    level: ``dict(zip(keys, rows))`` keeps each key's last row, a row
    whose key maps elsewhere is an earlier member of a shared group, and
    only groups with a row whose rhs differs from their last row's are
    partitioned by rhs in Python.  Singleton groups get no per-row
    container.
    """
    n = len(codec.ids)
    rows = list(range(n))  # one set of row ints, shared by every grouping
    edge_set: Set[int] = set()
    add_edge = edge_set.add
    groupings: List[Groups] = []
    for _fd, lhs_pos, rhs_pos in fd_specs:
        keys = codec.combined_codes(lhs_pos)
        groups: Groups = dict(zip(keys, rows))
        groupings.append(groups)
        if len(groups) == n:
            continue
        last_of = groups.__getitem__
        rhs = codec.combined_codes(rhs_pos)
        # Keys of the groups holding a row whose rhs differs from the
        # group's last row's: the only groups with conflicts.
        last_rhs = map(rhs.__getitem__, map(last_of, keys))
        split = set(compress(keys, map(ne, last_rhs, rhs)))
        shared: Dict[int, List[int]] = defaultdict(list)
        for r in compress(rows, map(ne, map(last_of, keys), rows)):
            shared[keys[r]].append(r)
        for key, members in shared.items():
            members.append(groups[key])
        groups.update(shared)
        for key in split:
            parts: Dict[int, List[int]] = defaultdict(list)
            for r in shared[key]:
                parts[rhs[r]].append(r)
            part_list = list(parts.values())
            for a in range(len(part_list) - 1):
                part_a = part_list[a]
                for b in range(a + 1, len(part_list)):
                    for u in part_a:
                        for v in part_list[b]:
                            add_edge(u * n + v if u < v else v * n + u)
    return sorted(edge_set), groupings


class ConflictKernel:
    """Flat-array conflict graph of a table, patchable in place.

    ``edges_u`` / ``edges_v`` hold each construction-time conflict pair
    once in canonical ascending ``(u, v)`` row order; ``indptr`` /
    ``indices`` are the CSR adjacency (both directions); ``degree`` and
    ``weights`` are the parallel per-row arrays.  Row index *is* table
    position (removals preserve order, inserts append), so ascending row
    order is table order everywhere.

    The view stays **live** under index mutation:
    :meth:`apply_remove` tombstones a row in the ``alive`` byte-flags
    and keeps ``degree`` / ``live_count`` / ``live_edges`` current, and
    :meth:`apply_insert` records an appended row's edges in the overflow
    adjacency ``extra_adj`` (CSR arrays are append-hostile; the overflow
    lists stay position-sorted by construction, so canonical edge order
    is a cheap merge).  ``patched`` flips on the first mutation; readers
    skip the tombstone filter while it is unset.  Once churn passes
    :meth:`should_compact` the owning index rebuilds the view over the
    live rows (tombstones and overflow fold back into plain CSR; the
    *alive* flags passed to the constructor mark the live subset of the
    codec's row space, and dead rows carry no edges).
    """

    __slots__ = (
        "codec", "edges_u", "edges_v", "indptr", "indices", "degree",
        "conflicting_rows", "alive", "csr_rows", "extra_adj", "patched",
        "live_count", "live_edges", "appended_count",
        "removed_count",
    )

    def __init__(
        self,
        codec: TableCodec,
        packed_edges: List[int],
        alive: Optional[bytearray] = None,
    ) -> None:
        self.codec = codec
        n = len(codec.ids)
        edges_u = list(map(floordiv, packed_edges, repeat(n)))
        edges_v = list(map(mod, packed_edges, repeat(n)))
        degree = [0] * n
        for u in edges_u:
            degree[u] += 1
        for v in edges_v:
            degree[v] += 1
        indptr = list(accumulate(degree, initial=0))
        fill = indptr[:-1]
        indices = [0] * (2 * len(packed_edges))
        # Edges arrive in ascending (u, v) order, so each row's slice
        # lists its backward then its forward neighbours, each ascending.
        for u, v in zip(edges_u, edges_v):
            indices[fill[u]] = v
            fill[u] += 1
            indices[fill[v]] = u
            fill[v] += 1
        self.edges_u = edges_u
        self.edges_v = edges_v
        self.indptr = indptr
        self.indices = indices
        self.degree = degree
        # Rows with at least one conflict, ascending, as of this build.
        self.conflicting_rows = list(compress(range(n), degree))
        self.csr_rows = n
        self.extra_adj: Dict[int, List[int]] = {}
        self.patched = False
        # Churn *since this build* — what should_compact measures.  A
        # compaction rebuild carries the codec's dead slots over (the
        # codec never reclaims rows), so counting dead rows would re-trip
        # the bound forever after the first rebuild.
        self.removed_count = 0
        self.appended_count = 0
        self.live_edges = len(packed_edges)
        if alive is None:
            alive = bytearray(b"\x01") * n
        self.alive = alive
        self.live_count = alive.count(1)

    @property
    def weights(self) -> List[float]:
        return self.codec.weights

    @property
    def num_edges(self) -> int:
        return len(self.edges_u)

    def copy(self, codec: TableCodec) -> "ConflictKernel":
        """An independently patchable duplicate over *codec* (a copy of
        this view's codec).  The CSR and edge arrays are never written
        after construction, so they are shared; the per-row mutable
        state is copied."""
        dup = object.__new__(ConflictKernel)
        for slot in ConflictKernel.__slots__:
            setattr(dup, slot, getattr(self, slot))
        dup.codec = codec
        dup.alive = bytearray(self.alive)
        dup.degree = list(self.degree)
        dup.extra_adj = {row: list(rows) for row, rows in self.extra_adj.items()}
        return dup

    # ------------------------------------------------------------------
    # Adjacency reads and incremental patching
    # ------------------------------------------------------------------
    def row_neighbors(self, row: int) -> List[int]:
        """All recorded neighbours of *row*, ascending (dead ones
        included on a patched view — filter with ``alive``).  CSR slices
        list backward then forward neighbours, each ascending (the
        packed-edge build order); overflow lists hold appended rows in
        append order, which is ascending too."""
        out = (
            self.indices[self.indptr[row]:self.indptr[row + 1]]
            if row < self.csr_rows
            else []
        )
        extra = self.extra_adj.get(row)
        if extra is not None:
            out += extra
        return out

    def live_neighbors(self, row: int) -> List[int]:
        """The live neighbours of *row*, ascending.  An unpatched view
        needs no filter: its dead rows (if compacted) carry no edges."""
        out = self.row_neighbors(row)
        if self.patched:
            out = list(compress(out, map(self.alive.__getitem__, out)))
        return out

    def iter_live_edges(self) -> Iterator[Tuple[int, int]]:
        """Every live conflict pair once, in canonical ascending row
        order: the flat edge arrays while unpatched, the CSR slices
        merged with the overflow adjacency after."""
        if not self.patched:
            return zip(self.edges_u, self.edges_v)
        live_neighbors = self.live_neighbors
        # Dead and conflict-free rows both carry degree 0.
        return (
            (u, v)
            for u in compress(range(len(self.degree)), self.degree)
            for v in live_neighbors(u)
            if v > u
        )

    def apply_remove(self, row: int) -> List[int]:
        """Tombstone *row*: O(recorded degree) flag-and-decrement.
        Returns the neighbour rows the removal left conflict-free."""
        alive = self.alive
        if not alive[row]:
            raise ValueError(f"row {row} is already dead in the kernel view")
        alive[row] = 0
        self.patched = True
        self.live_count -= 1
        self.removed_count += 1
        degree = self.degree
        isolated: List[int] = []
        self.live_edges -= degree[row]
        for v in self.row_neighbors(row):
            if alive[v]:
                degree[v] -= 1
                if not degree[v]:
                    isolated.append(v)
        degree[row] = 0
        return isolated

    def apply_insert(self, row: int, neighbor_rows: Sequence[int]) -> None:
        """Graft an appended row (codec row index *row*) and its conflict
        edges onto the view.  *neighbor_rows* must be the live conflict
        partners, ascending — exactly what the index's group probe
        produced."""
        if row != len(self.alive):
            raise ValueError(
                f"appended row {row} does not extend the kernel view "
                f"({len(self.alive)} rows)"
            )
        self.alive.append(1)
        self.degree.append(len(neighbor_rows))
        self.patched = True
        self.live_count += 1
        self.appended_count += 1
        self.live_edges += len(neighbor_rows)
        if neighbor_rows:
            self.extra_adj[row] = list(neighbor_rows)
            degree = self.degree
            extra = self.extra_adj
            for v in neighbor_rows:
                degree[v] += 1
                bucket = extra.get(v)
                if bucket is None:
                    extra[v] = [row]
                else:
                    bucket.append(row)

    def should_compact(self) -> bool:
        """True once the mutations absorbed *since this build* outweigh
        the CSR arrays' usefulness — the owning index then rebuilds the
        view (periodic compaction keeps patch cost amortised O(1) per
        delta, and the rebuild resets the churn counters)."""
        churn = self.removed_count + self.appended_count
        return churn > 64 and 2 * churn > self.live_count


def components_csr(
    kernel: ConflictKernel, roots: Optional[Iterable[int]] = None
) -> List[List[int]]:
    """Connected components over the kernel arrays, canonically ordered.

    Matches :meth:`ConflictIndex.components` exactly: components listed
    by their earliest row, members ascending — row index is table
    position, so ascending ints *is* table order.  Only rows with at
    least one live edge appear.

    A byte-flag visited array, an explicit stack, and C-level iteration
    over CSR slices merged with the overflow adjacency; dead rows are
    filtered through ``alive``.  *roots* must list live conflicting rows
    in ascending order — all of them for a full sweep, or those whose
    components are wanted (the owning index supplies them from its
    conflicting-tuple set).  Without *roots* the sweep starts from the
    construction-time ``conflicting_rows``, which are stale the moment
    a mutation lands — so a patched view without roots raises.
    """
    if roots is None:
        if kernel.patched:
            raise RuntimeError(
                "components_csr reads a patched kernel view without roots: "
                "its construction-time roots are stale — use "
                "ConflictIndex.components(), which supplies live roots"
            )
        roots = kernel.conflicting_rows
    alive = kernel.alive
    degree = kernel.degree
    row_neighbors = kernel.row_neighbors
    seen = bytearray(len(alive))
    out: List[List[int]] = []
    for root in roots:
        if seen[root] or not degree[root]:
            continue
        seen[root] = 1
        stack = [root]
        members: List[int] = []
        append = members.append
        while stack:
            current = stack.pop()
            append(current)
            for other in row_neighbors(current):
                if not seen[other] and alive[other]:
                    seen[other] = 1
                    stack.append(other)
        members.sort()
        out.append(members)
    return out


def bye_cover_csr(kernel: ConflictKernel) -> Set[int]:
    """Bar-Yehuda–Even over the flat edge arrays; returns covered rows.

    Identical arithmetic to
    :func:`repro.graphs.vertex_cover.bar_yehuda_even` reading
    ``ConflictIndex.edges()``: the flat arrays (merged with the overflow
    adjacency on a patched view) hold the live edges in the same
    canonical order, so every local-ratio payment happens in the same
    sequence on the same floats.
    """
    residual = list(kernel.weights)
    cover: Set[int] = set()
    for u, v in kernel.iter_live_edges():
        if u in cover or v in cover:
            continue
        ru = residual[u]
        rv = residual[v]
        pay = ru if ru < rv else rv
        residual[u] = ru - pay
        residual[v] = rv - pay
        if residual[u] <= 0:
            cover.add(u)
        if residual[v] <= 0:
            cover.add(v)
    return cover


# ---------------------------------------------------------------------------
# LP-relaxation lower bound (half-integral vertex cover LP)
# ---------------------------------------------------------------------------

#: Residual-capacity epsilon of the blocking-flow loops below: float
#: arithmetic can leave a saturated arc with a ~1e-16 residue, which must
#: read as "saturated" or the level search loops forever.
_LP_EPS = 1e-12


def lp_half_integral_bound(
    weights: Sequence[float],
    edges: Iterable[Tuple[int, int]],
) -> float:
    """Optimal value of the vertex-cover LP relaxation over *edges*.

    The LP ``min Σ w_v·x_v  s.t.  x_u + x_v ≥ 1, 0 ≤ x ≤ 1`` always has
    a half-integral optimum (Nemhauser–Trotter), computable exactly with
    no external solver: the LP optimum equals half the maximum flow on
    the **bipartite double cover** — source → u_L with capacity ``w_u``,
    ``u_L → v_R`` and ``v_L → u_R`` uncapacitated per edge, ``v_R`` →
    sink with capacity ``w_v``.  The flow is the standard primal-dual
    augmenting computation (BFS level graph + blocking-flow DFS) over
    flat arrays.  By LP duality the result dominates every fractional
    matching — in particular the greedy maximal-matching bound — and is
    itself dominated by the integral optimum:
    ``matching ≤ LP ≤ exact optimum ≤ BYE``, with equality of LP and
    exact on bipartite components and strict LP > matching typically on
    odd cycles.

    Determinism contract: the edge list is **sorted internally**, so any
    caller producing the same edge *set* over the same vertex numbering
    (kernel CSR arrays or the dict reference's canonical ``edges()``)
    gets the bit-identical float back — load-bearing for kernel-vs-dict
    report identity.

    *weights* is indexed by vertex number; vertices not named by any
    edge contribute nothing.  Returns ``0.0`` for an empty edge list.
    """
    edge_list = sorted(edges)
    if not edge_list:
        return 0.0
    n = len(weights)
    source = 2 * n
    sink = 2 * n + 1
    # Flat adjacency: graph[node] lists edge ids; eto/ecap parallel
    # arrays with the reverse arc at ``e ^ 1``.
    graph: List[List[int]] = [[] for _ in range(2 * n + 2)]
    eto: List[int] = []
    ecap: List[float] = []

    def add(u: int, v: int, cap: float) -> None:
        graph[u].append(len(eto))
        eto.append(v)
        ecap.append(cap)
        graph[v].append(len(eto))
        eto.append(u)
        ecap.append(0.0)

    touched = sorted({w for pair in edge_list for w in pair})
    infinity = float("inf")
    for u in touched:
        add(source, u, float(weights[u]))
        add(n + u, sink, float(weights[u]))
    for u, v in edge_list:
        add(u, n + v, infinity)
        add(v, n + u, infinity)

    flow = 0.0
    num_nodes = 2 * n + 2
    while True:
        # BFS level graph over residual arcs.
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for node in queue:
            base = level[node] + 1
            for e in graph[node]:
                other = eto[e]
                if ecap[e] > _LP_EPS and level[other] < 0:
                    level[other] = base
                    queue.append(other)
        if level[sink] < 0:
            break
        # Blocking flow: iterative DFS with per-node arc pointers; a
        # dead-ended node drops out of the level graph, an augmentation
        # restarts from the source with pointers kept.
        pointer = [0] * num_nodes
        path: List[int] = []
        node = source
        while True:
            if node == sink:
                pushed = min(ecap[e] for e in path)
                for e in path:
                    ecap[e] -= pushed
                    ecap[e ^ 1] += pushed
                flow += pushed
                path = []
                node = source
                continue
            advanced = False
            arcs = graph[node]
            want = level[node] + 1
            while pointer[node] < len(arcs):
                e = arcs[pointer[node]]
                other = eto[e]
                if ecap[e] > _LP_EPS and level[other] == want:
                    path.append(e)
                    node = other
                    advanced = True
                    break
                pointer[node] += 1
            if advanced:
                continue
            if node == source:
                break
            level[node] = -1  # dead end: never re-enter this phase
            e = path.pop()
            node = eto[e ^ 1]
    return flow / 2.0


# ---------------------------------------------------------------------------
# Bitmask branch & bound (components ≤ 64 vertices)
# ---------------------------------------------------------------------------

def _bits_ascending(mask: int) -> List[int]:
    """Set-bit positions of *mask*, ascending."""
    out: List[int] = []
    append = out.append
    while mask:
        low = mask & -mask
        append(low.bit_length() - 1)
        mask ^= low
    return out


def bye_cover_masks(weights: Sequence[float], masks: Sequence[int]) -> int:
    """Bar-Yehuda–Even on neighbour bitmasks; returns the cover mask.

    Edges are visited in ascending ``(u, v)`` order — the same canonical
    sequence as the reference — so the result set is identical.  Forward
    neighbours come off the mask by lowest-set-bit extraction (one int op
    per *edge*, not per bit position), which is what keeps the loop fast
    on multi-word masks of components past 64 vertices.
    """
    residual = list(weights)
    cover = 0
    for u in range(len(weights)):
        if (cover >> u) & 1:
            # A covered u can't change any residual; skipping its edges
            # mirrors the reference's per-edge membership test.
            continue
        forward = (masks[u] >> (u + 1)) << (u + 1)
        while forward:
            low = forward & -forward
            forward ^= low
            v = low.bit_length() - 1
            if (cover >> v) & 1:
                continue
            ru = residual[u]
            rv = residual[v]
            pay = ru if ru < rv else rv
            residual[u] = ru - pay
            residual[v] = rv - pay
            if residual[v] <= 0:
                cover |= low
            if residual[u] <= 0:
                cover |= 1 << u
                break  # u covered: its remaining edges are skipped
    return cover


def _matching_lower_bound_masks(
    remaining: int, weights: Sequence[float], masks: Sequence[int]
) -> float:
    """Greedy maximal-matching bound over the remaining subgraph.

    Mirrors ``_matching_lower_bound``: edges in ascending order, each
    matched edge paying the lighter endpoint.
    """
    matched = 0
    bound = 0.0
    todo = remaining
    while todo:
        low = todo & -todo
        u = low.bit_length() - 1
        todo ^= low
        if (matched >> u) & 1:
            continue
        candidates = masks[u] & ((remaining >> (u + 1)) << (u + 1))
        while candidates:
            low_v = candidates & -candidates
            v = low_v.bit_length() - 1
            candidates ^= low_v
            if (matched >> v) & 1:
                continue
            matched |= (1 << u) | (1 << v)
            wu = weights[u]
            wv = weights[v]
            bound += wu if wu < wv else wv
            break
    return bound


class BitsetVC:
    """Exact minimum-weight vertex cover as a multi-word bitset search.

    A faithful mirror of
    :func:`repro.graphs.vertex_cover.exact_min_weight_vertex_cover` on a
    component of at most :data:`MAX_BITMASK_VERTICES` vertices: vertex
    *i* of the (table-ordered) component maps to bit *i*; ``masks[i]``
    is its neighbour set; ``labels[i] = str(id_i)`` reproduces the
    reference's branch-vertex tie-break.  The mirror preserves the
    simplification order (isolated vertices, then the weighted pendant
    rule with restart), the matching-lower-bound prune, the branch order
    ("take v" before "take N(v)") and every floating-point summation
    order — so the returned cover mask decodes to the *identical* vertex
    set.  Masks past 64 bits are multi-digit Python ints, i.e. C-level
    word arrays — the search is representation-identical either side of
    the machine-word boundary.

    On top of the mirror, a subset-memo on the remaining-vertices mask
    prunes re-entered states: a state revisited at an entry cost no
    lower than a previous visit cannot improve the incumbent (entry
    costs only shift completions upward, and incumbent updates are
    strict), so the memo prune is result-invisible — it removes work,
    never answers.

    :meth:`solve` accepts a wall-clock ``budget_s``; on expiry the
    search raises :class:`~repro.graphs.vertex_cover.ExactBudgetExceeded`
    (checked every :data:`_BUDGET_CHECK_INTERVAL` search nodes), the
    portfolio's escape hatch for pathological dense components.
    """

    __slots__ = ("weights", "masks", "labels")

    def __init__(
        self,
        weights: Sequence[float],
        masks: Sequence[int],
        labels: Sequence[str],
    ) -> None:
        n = len(weights)
        if n > MAX_BITMASK_VERTICES:
            raise ValueError(
                f"bitset vertex cover limited to {MAX_BITMASK_VERTICES} "
                f"vertices, got {n}"
            )
        self.weights = weights
        self.masks = masks
        self.labels = labels

    def solve(self, budget_s: Optional[float] = None) -> int:
        weights = self.weights
        masks = self.masks
        labels = self.labels
        n = len(weights)
        full = (1 << n) - 1
        deadline = None if budget_s is None else time.monotonic() + budget_s
        ticks = _BUDGET_CHECK_INTERVAL

        best_cover = bye_cover_masks(weights, masks)
        best_cost = 0.0
        for v in _bits_ascending(best_cover):
            best_cost += weights[v]

        memo: Dict[int, float] = {}

        def solve(remaining: int, chosen: int, cost: float) -> None:
            nonlocal best_cover, best_cost, ticks
            if deadline is not None:
                ticks -= 1
                if ticks <= 0:
                    ticks = _BUDGET_CHECK_INTERVAL
                    if time.monotonic() > deadline:
                        raise ExactBudgetExceeded(
                            f"bitset vertex cover exceeded its "
                            f"{budget_s:g}s budget"
                        )
            # Simplifications, exactly as the reference: scan a snapshot
            # of the vertices in position order; drop isolated vertices
            # in place, and on a (weighted) pendant take restart the
            # scan.  (Bit loops iterate a snapshot int ascending — the
            # mirror of iterating list(g.nodes()) while mutating g.)
            while True:
                changed = False
                snapshot = remaining
                while snapshot:
                    low = snapshot & -snapshot
                    snapshot ^= low
                    v = low.bit_length() - 1
                    nbrs = masks[v] & remaining
                    if not nbrs:
                        remaining ^= low
                        changed = True
                    elif not (nbrs & (nbrs - 1)):  # exactly one neighbour
                        u = nbrs.bit_length() - 1
                        if weights[u] <= weights[v]:
                            chosen |= nbrs
                            cost += weights[u]
                            remaining ^= nbrs
                            changed = True
                            break
                if not changed:
                    break
            if cost >= best_cost:
                return
            # Any edge left?
            has_edge = False
            snapshot = remaining
            while snapshot:
                low = snapshot & -snapshot
                snapshot ^= low
                if masks[low.bit_length() - 1] & remaining:
                    has_edge = True
                    break
            if not has_edge:
                if cost < best_cost:
                    best_cover = chosen
                    best_cost = cost
                return
            if cost + _matching_lower_bound_masks(remaining, weights, masks) >= best_cost:
                return
            previous = memo.get(remaining)
            if previous is not None and cost >= previous:
                return
            memo[remaining] = cost if previous is None or cost < previous else previous
            # Branch vertex: maximum (induced degree, label), first wins —
            # the reference's max() over nodes in insertion order.
            branch_v = -1
            best_degree = -1
            best_label = ""
            snapshot = remaining
            while snapshot:
                low = snapshot & -snapshot
                snapshot ^= low
                v = low.bit_length() - 1
                degree = (masks[v] & remaining).bit_count()
                if degree > best_degree or (
                    degree == best_degree and labels[v] > best_label
                ):
                    best_degree = degree
                    best_label = labels[v]
                    branch_v = v
            v_bit = 1 << branch_v
            nbrs = masks[branch_v] & remaining
            # Branch 1: v in the cover.
            solve(remaining & ~v_bit, chosen | v_bit, cost + weights[branch_v])
            # Branch 2: v out → all neighbours in (weights summed ascending,
            # matching the reference's node-ordered accumulation).
            add_cost = 0.0
            snapshot = nbrs
            while snapshot:
                low = snapshot & -snapshot
                snapshot ^= low
                add_cost += weights[low.bit_length() - 1]
            solve(remaining & ~(nbrs | v_bit), chosen | nbrs, cost + add_cost)

        # Recursion depth is bounded by the component size (each branch
        # strictly shrinks ``remaining``); past 64 vertices that can
        # brush CPython's default 1000-frame limit under a deep caller
        # stack, so give the search headroom for its duration — and
        # restore the caller's limit on the way out, success or raise:
        # a library call must not leave a process-global widened.
        if n > MAX_BITMASK_VERTICES // 4:
            import sys

            previous_limit = sys.getrecursionlimit()
            sys.setrecursionlimit(max(previous_limit, 4096))
            try:
                solve(full, 0, 0.0)
            finally:
                sys.setrecursionlimit(previous_limit)
        else:
            solve(full, 0, 0.0)
        return best_cover


def bitmask_vertex_cover(
    weights: Sequence[float],
    masks: Sequence[int],
    labels: Sequence[str],
    budget_s: Optional[float] = None,
) -> int:
    """Functional entry point for :class:`BitsetVC` (see there)."""
    return BitsetVC(weights, masks, labels).solve(budget_s=budget_s)


def exact_cover_ids(index, budget_s: Optional[float] = None) -> List[TupleId]:
    """Exact minimum-weight vertex cover of a live :class:`ConflictIndex`
    with at most :data:`MAX_BITMASK_VERTICES` tuples, via the bitset
    branch & bound.  Returns the covered tuple ids (table order).

    Reads the index's (cached) mask view — built straight from the live
    adjacency, no ``Graph`` materialisation, no per-branch graph copies.
    Live order is always ascending table position (removals preserve
    order, inserts append), so bit order matches the node order the
    reference solver sees.  *budget_s* propagates to
    :meth:`BitsetVC.solve`.
    """
    members, weights, masks = index._mask_view()
    labels = [str(tid) for tid in members]
    cover = BitsetVC(weights, masks, labels).solve(budget_s=budget_s)
    return [members[i] for i in _bits_ascending(cover)]


# ---------------------------------------------------------------------------
# Array-native approximation loops (greedy deletion, MIS maximalisation)
# ---------------------------------------------------------------------------

def greedy_cover_csr(kern: ConflictKernel) -> Set[int]:
    """The greedy weight/degree deletion loop over the kernel arrays.

    Mirrors :func:`repro.core.approx.greedy_s_repair`'s lazy-heap loop
    decision for decision — same ``(weight/degree, str(id), live rank)``
    keys, same stale-entry re-push rule — on a flat degree array and
    ``alive`` byte-flags instead of a mutable :class:`ConflictIndex`
    copy.  Works on pristine and patched views alike (live degrees are
    maintained by the patch hooks).  Returns the *removed* rows.
    """
    ids = kern.codec.ids
    weights = kern.codec.weights
    alive = bytearray(kern.alive)
    degree = list(kern.degree)
    edges = kern.live_edges
    # The reference's tie-break triple is (weight/degree, str(id), live
    # rank); the row index is strictly monotone in live rank, so using
    # it as the third key yields the identical relative order — and an
    # unpatched view can seed the heap from its conflicting-rows list
    # alone (dead rows always carry degree 0, so the degree test is the
    # only liveness check the patched scan needs).
    rows = (
        kern.conflicting_rows if not kern.patched else range(len(degree))
    )
    heap: List[Tuple[float, str, int]] = [
        (weights[r] / d, str(ids[r]), r)
        for r in rows
        if (d := degree[r]) > 0
    ]
    heapq.heapify(heap)
    removed: Set[int] = set()
    row_neighbors = kern.row_neighbors
    while edges > 0:
        key, label, r = heapq.heappop(heap)
        if not alive[r]:
            continue
        d = degree[r]
        if d == 0:
            continue  # conflict-free now; degrees never rise again
        current = weights[r] / d
        if current > key:
            heapq.heappush(heap, (current, label, r))
            continue
        alive[r] = 0
        removed.add(r)
        for v in row_neighbors(r):
            if alive[v]:
                degree[v] -= 1
        degree[r] = 0
        edges -= d
    return removed


def greedy_cover_masks(
    weights: Sequence[float], masks: Sequence[int], labels: Sequence[str]
) -> int:
    """Mask-view twin of :func:`greedy_cover_csr` for small live indexes
    (per-component solves).  Bit *i* is live tuple *i*; returns the
    removed-vertices mask."""
    n = len(weights)
    alive = (1 << n) - 1
    degree = [masks[i].bit_count() for i in range(n)]
    edges = sum(degree) // 2
    heap: List[Tuple[float, str, int, int]] = [
        (weights[i] / d, labels[i], i, i)
        for i in range(n)
        if (d := degree[i])
    ]
    heapq.heapify(heap)
    removed = 0
    while edges > 0:
        key, label, rank, r = heapq.heappop(heap)
        bit = 1 << r
        if not alive & bit:
            continue
        d = degree[r]
        if d == 0:
            continue
        current = weights[r] / d
        if current > key:
            heapq.heappush(heap, (current, label, rank, r))
            continue
        alive ^= bit
        removed |= bit
        nbrs = masks[r] & alive
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            degree[low.bit_length() - 1] -= 1
        degree[r] = 0
        edges -= d
    return removed


def mis_maximalize_csr(
    kern: ConflictKernel, independent: Set[TupleId]
) -> Set[TupleId]:
    """Grow an independent tuple set to a maximal one over the kernel view.

    Mirrors :func:`repro.graphs.vertex_cover.maximalize_independent_set`:
    candidates are the live tuples outside the set, in live (= row)
    order, stably sorted by ``(-weight, str(id))``; each joins unless a
    live neighbour is already in.  Takes and returns tuple-id sets so
    the (typically large) independent side is one C-level set copy —
    only the (typically few) candidates pay per-row work.
    """
    ids = kern.codec.ids
    weights = kern.codec.weights
    alive = kern.alive
    result = set(independent)
    candidates = [
        r for r, tid in enumerate(ids) if alive[r] and tid not in result
    ]
    candidates.sort(key=lambda r: (-weights[r], str(ids[r])))
    for r in candidates:
        for v in kern.row_neighbors(r):
            if alive[v] and ids[v] in result:
                break
        else:
            result.add(ids[r])
    return result


def mis_maximalize_masks(
    weights: Sequence[float],
    masks: Sequence[int],
    labels: Sequence[str],
    independent: int,
) -> int:
    """Mask-view twin of :func:`mis_maximalize_csr`; *independent* and
    the result are vertex masks over the live order."""
    n = len(weights)
    result = independent
    candidates = [i for i in range(n) if not (independent >> i) & 1]
    candidates.sort(key=lambda i: (-weights[i], labels[i]))
    for i in candidates:
        if not masks[i] & result:
            result |= 1 << i
    return result
