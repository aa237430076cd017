"""Tables with tuple identifiers and weights (Section 2.1 of the paper).

A :class:`Table` over a schema ``R(A1, …, Ak)`` maps each tuple identifier
to a k-tuple of values and a positive weight.  Identifiers make duplicate
tuples representable and let update repairs say exactly which cells changed.

The module also provides:

* :class:`FreshValue` — labelled nulls standing in for values drawn from
  the paper's countably infinite domain ``Val`` outside the active domain.
  Fresh values compare equal only to themselves, which is all FD
  satisfaction can observe.
* The two distance functions of Section 2.3, ``dist_sub`` and ``dist_upd``
  (weighted deletions and weighted Hamming distance).
"""

from __future__ import annotations

import itertools
import math
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .fd import Attribute, AttrSet, attrset

Value = Hashable
TupleId = Hashable
Row = Tuple[Value, ...]

__all__ = [
    "FreshValue",
    "fresh_value_factory",
    "Table",
    "checked_weight",
    "hamming_distance",
]

_INF = float("inf")


def checked_weight(weight, tid: Optional[TupleId] = None) -> float:
    """*weight* as a float, or ``ValueError`` unless it is finite and
    positive — the one weight check behind :class:`Table`, the conflict
    index's ``insert`` and the streaming session's ``append`` (NaN and
    ±inf fail it: a NaN weight would make every distance NaN)."""
    value = float(weight)
    if 0.0 < value < _INF:
        return value
    who = "" if tid is None else f"tuple {tid!r} has "
    kind = "non-positive" if value <= 0 else "non-finite"
    raise ValueError(f"{who}{kind} weight {value}")


class FreshValue:
    """A labelled null: a value guaranteed distinct from every other value.

    The paper's update repairs may use values from an infinite domain that
    never occur in the table (e.g. ``F01`` in Figure 1(e)).  Only the
    *equality pattern* of values matters to FD satisfaction, so identity-
    distinct sentinel objects are a faithful model of such fresh constants.
    """

    __slots__ = ("label",)
    _counter = itertools.count()

    def __init__(self, label: Optional[str] = None) -> None:
        if label is None:
            label = f"⊥{next(FreshValue._counter)}"
        self.label = label

    def __repr__(self) -> str:
        return self.label

    # Identity-based equality/hash (object defaults) are exactly what we
    # want; declared explicitly for clarity.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)


def fresh_value_factory(prefix: str = "⊥") -> Iterator[FreshValue]:
    """An infinite stream of distinct fresh values with readable labels."""
    for i in itertools.count():
        yield FreshValue(f"{prefix}{i}")


def hamming_distance(t: Sequence[Value], u: Sequence[Value]) -> int:
    """``H(t, u)`` — the number of positions where *t* and *u* disagree."""
    if len(t) != len(u):
        raise ValueError("Hamming distance of tuples with different arity")
    return sum(1 for a, b in zip(t, u) if a != b)


class Table:
    """A weighted table with tuple identifiers over a named schema.

    Parameters
    ----------
    schema:
        Attribute names, in column order.
    rows:
        Mapping from tuple identifier to a value tuple of matching arity.
    weights:
        Optional mapping from identifier to a positive weight; missing
        identifiers default to ``1.0`` (the *unweighted* case).
    name:
        Optional relation name, used only for display.

    Instances are immutable in spirit: all mutating operations return new
    tables.  Iteration order of identifiers is the insertion order of
    ``rows``, which keeps every algorithm in the library deterministic.

    Immutability lets each table memoise derived structures in ``_cache``:
    :meth:`group_by` buckets (reused across the OptSRepair recursion) and
    per-FD-set :class:`~repro.core.conflict_index.ConflictIndex` instances
    (shared by every repair entry point, see :meth:`conflict_index`).
    """

    __slots__ = (
        "_schema", "_rows", "_weights", "name", "_index", "_cache",
        "__weakref__",  # ConflictIndex holds a weakref to its source table
    )

    def __init__(
        self,
        schema: Sequence[Attribute],
        rows: Mapping[TupleId, Sequence[Value]],
        weights: Optional[Mapping[TupleId, float]] = None,
        name: str = "R",
    ) -> None:
        self._schema: Tuple[Attribute, ...] = tuple(schema)
        if len(set(self._schema)) != len(self._schema):
            raise ValueError(f"duplicate attribute in schema {self._schema!r}")
        arity = len(self._schema)
        normalised: Dict[TupleId, Row] = {}
        for tid, row in rows.items():
            row = tuple(row)
            if len(row) != arity:
                raise ValueError(
                    f"tuple {tid!r} has arity {len(row)}, schema has {arity}"
                )
            normalised[tid] = row
        self._rows = normalised
        w: Dict[TupleId, float] = {}
        weights = weights or {}
        weight_of = weights.get
        for tid in normalised:
            w[tid] = checked_weight(weight_of(tid, 1.0), tid)
        extra = set(weights) - set(normalised)
        if extra:
            raise ValueError(f"weights for unknown identifiers: {sorted(map(str, extra))}")
        self._weights = w
        self.name = name
        self._index: Dict[Attribute, int] = {a: i for i, a in enumerate(self._schema)}
        self._cache: Dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_trusted(
        cls,
        schema: Tuple[Attribute, ...],
        rows: Dict[TupleId, Row],
        weights: Dict[TupleId, float],
        name: str,
        index: Dict[Attribute, int],
    ) -> "Table":
        """Internal fast path: build a table from already-validated parts.

        ``rows`` and ``weights`` are adopted without copying or
        re-validation, and ``index`` is shared; callers must hand over
        freshly-built dicts whose invariants (matching key sets, tuple
        rows of schema arity, positive weights) already hold.  This is
        what makes :meth:`subset` / :meth:`union` — the hot constructors
        of the OptSRepair recursion — O(|rows|) instead of O(|rows|·k)
        with per-row checks.
        """
        table = cls.__new__(cls)
        table._schema = schema
        table._rows = rows
        table._weights = weights
        table.name = name
        table._index = index
        table._cache = {}
        return table

    @classmethod
    def from_rows(
        cls,
        schema: Sequence[Attribute],
        rows: Iterable[Sequence[Value]],
        weights: Optional[Sequence[float]] = None,
        name: str = "R",
    ) -> "Table":
        """Build a table from a list of value tuples; ids are 1, 2, 3, …"""
        rows = list(rows)
        row_map = {i + 1: tuple(row) for i, row in enumerate(rows)}
        weight_map = None
        if weights is not None:
            weights = list(weights)
            if len(weights) != len(rows):
                raise ValueError("weights and rows have different lengths")
            weight_map = {i + 1: w for i, w in enumerate(weights)}
        return cls(schema, row_map, weight_map, name=name)

    @classmethod
    def from_dicts(
        cls,
        schema: Sequence[Attribute],
        records: Iterable[Mapping[Attribute, Value]],
        weights: Optional[Sequence[float]] = None,
        name: str = "R",
    ) -> "Table":
        """Build a table from dict records keyed by attribute name."""
        schema = tuple(schema)
        rows = [tuple(rec[a] for a in schema) for rec in records]
        return cls.from_rows(schema, rows, weights, name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Tuple[Attribute, ...]:
        return self._schema

    def ids(self) -> Tuple[TupleId, ...]:
        """Identifiers in insertion order."""
        return tuple(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __contains__(self, tid: TupleId) -> bool:
        return tid in self._rows

    def __getitem__(self, tid: TupleId) -> Row:
        return self._rows[tid]

    def weight(self, tid: TupleId) -> float:
        return self._weights[tid]

    def weights(self) -> Dict[TupleId, float]:
        return dict(self._weights)

    def rows(self) -> Dict[TupleId, Row]:
        return dict(self._rows)

    def tuples(self) -> Iterator[Tuple[TupleId, Row, float]]:
        """Iterate ``(id, row, weight)`` in insertion order."""
        for tid, row in self._rows.items():
            yield tid, row, self._weights[tid]

    def value(self, tid: TupleId, attr: Attribute) -> Value:
        """The value of attribute *attr* in tuple *tid*."""
        return self._rows[tid][self._index[attr]]

    def project_row(self, row: Sequence[Value], attrs: Iterable[Attribute]) -> Row:
        """``t[X]`` — the sub-tuple of *row* on attributes *attrs*.

        Attributes are taken in sorted order so projections are canonical
        and comparable across calls.
        """
        return tuple(row[self._index[a]] for a in sorted(attrs))

    def project(self, tid: TupleId, attrs: Iterable[Attribute]) -> Row:
        return self.project_row(self._rows[tid], attrs)

    # ------------------------------------------------------------------
    # Whole-table properties (Section 2.1)
    # ------------------------------------------------------------------
    @property
    def is_duplicate_free(self) -> bool:
        """True iff distinct identifiers carry distinct tuples."""
        return len(set(self._rows.values())) == len(self._rows)

    @property
    def is_unweighted(self) -> bool:
        """True iff all tuple weights are equal."""
        return len(set(self._weights.values())) <= 1

    def total_weight(self, ids: Optional[Iterable[TupleId]] = None) -> float:
        """``w_T(S)`` — sum of weights over *ids* (default: all tuples,
        summed in table order once per table: tables are immutable)."""
        if ids is not None:
            return sum(self._weights[tid] for tid in ids)
        total = self._cache.get("total_weight")
        if total is None:
            total = self._cache["total_weight"] = sum(self._weights.values())
        return total

    def active_domain(self, attr: Attribute) -> Set[Value]:
        """All values occurring in column *attr*."""
        idx = self._index[attr]
        return {row[idx] for row in self._rows.values()}

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------
    def subset(self, ids: Iterable[TupleId]) -> "Table":
        """The sub-table containing exactly the given identifiers.

        Ordering contract: a *sequence* of ids sets the new table's
        iteration order (construction is O(|ids|) — this is what keeps
        the OptSRepair recursion linear, its :meth:`group_by` buckets
        being table-ordered already); a *set* is filtered in table
        order at O(|T|).  Callers holding an arbitrarily-ordered id
        collection should pass a set to get the canonical order.
        """
        rows_src = self._rows
        if isinstance(ids, (set, frozenset)):
            missing = ids - rows_src.keys()
            if missing:
                raise KeyError(f"unknown identifiers: {sorted(map(str, missing))}")
            rows = {tid: row for tid, row in rows_src.items() if tid in ids}
        else:
            if not isinstance(ids, (list, tuple)):
                ids = list(ids)
            try:
                rows = {tid: rows_src[tid] for tid in ids}
            except KeyError:
                missing = set(ids) - rows_src.keys()
                raise KeyError(
                    f"unknown identifiers: {sorted(map(str, missing))}"
                ) from None
        weights_src = self._weights
        weights = {tid: weights_src[tid] for tid in rows}
        return Table._from_trusted(
            self._schema, rows, weights, self.name, self._index
        )

    def select_eq(self, assignment: Mapping[Attribute, Value]) -> "Table":
        """``σ_{A1=a1, …}T`` — tuples matching the given attribute values."""
        items = [(self._index[a], v) for a, v in assignment.items()]
        rows = {
            tid: row
            for tid, row in self._rows.items()
            if all(row[i] == v for i, v in items)
        }
        weights = {tid: self._weights[tid] for tid in rows}
        return Table._from_trusted(
            self._schema, rows, weights, self.name, self._index
        )

    def group_by(self, attrs: Iterable[Attribute]) -> Dict[Row, List[TupleId]]:
        """Identifiers grouped by their projection onto *attrs*.

        Attributes are sorted (see :meth:`project_row`), so the group keys
        are canonical value tuples.  Grouping by the empty attribute set
        puts every tuple in the single group keyed by ``()``.

        The grouping is memoised per attribute set (tables are immutable);
        treat the returned dict and its lists as read-only.
        """
        attrs = sorted(attrset(attrs) if not isinstance(attrs, (list, tuple, set, frozenset)) else attrs)
        cache_key = ("group_by", tuple(attrs))
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        positions = [self._index[a] for a in attrs]
        groups: Dict[Row, List[TupleId]] = {}
        setdefault = groups.setdefault
        for tid, row in self._rows.items():
            key = tuple(row[i] for i in positions)
            setdefault(key, []).append(tid)
        self._cache[cache_key] = groups
        return groups

    def conflict_index(self, fds) -> "ConflictIndex":
        """The cached :class:`~repro.core.conflict_index.ConflictIndex`
        of this table under *fds*.

        Built on first use and memoised per FD set, so the violation
        buckets and the materialised conflict graph are shared by every
        repair entry point (assessment, approximation, exact search, …)
        — and by batched repair of many FD sets over one table.  The
        returned index is the pristine cached instance: callers that
        mutate it (incremental tuple removal) must work on a
        :meth:`~repro.core.conflict_index.ConflictIndex.copy`.
        """
        from .conflict_index import ConflictIndex  # deferred: avoid cycle

        cache_key = ("conflict_index", fds)
        cached = self._cache.get(cache_key)
        if cached is None:
            cached = ConflictIndex(self, fds)
            self._cache[cache_key] = cached
        return cached

    def cached_conflict_index(self, fds) -> "Optional[ConflictIndex]":
        """The already-built index for *fds*, or ``None`` — never builds.

        For callers that want the materialised fast path only when it is
        free (e.g. :func:`repro.core.violations.satisfies`), without
        committing to an O(|T|·|Δ|) build.
        """
        return self._cache.get(("conflict_index", fds))

    # ------------------------------------------------------------------
    # Pickling (process-pool execution of per-component repairs)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the table data, never the derived-structure cache.

        The cache may hold :class:`ConflictIndex` instances, which carry a
        weakref to this table and are therefore unpicklable — and sending
        them across a process boundary would be wasteful anyway (workers
        rebuild exactly the sub-index they need).  Everything else is
        plain data.
        """
        return (self._schema, self._rows, self._weights, self.name)

    def __setstate__(self, state) -> None:
        schema, rows, weights, name = state
        self._schema = schema
        self._rows = rows
        self._weights = weights
        self.name = name
        self._index = {a: i for i, a in enumerate(schema)}
        self._cache = {}

    def clear_derived_cache(self) -> None:
        """Drop all memoised derived structures (group_by buckets,
        conflict indexes).

        The cache only ever grows — one entry per distinct attribute set
        or FD set queried — which is right for the repair workloads but
        can pin substantial memory on a long-lived table probed against
        many candidate FD sets.  Clearing is always safe: entries are
        pure functions of the (immutable) table and rebuild on demand.
        """
        self._cache.clear()

    def distinct_projection(self, attrs: Iterable[Attribute]) -> List[Row]:
        """``π_X T[*]`` — distinct projections, in first-seen order."""
        seen: Set[Row] = set()
        out: List[Row] = []
        for tid in self._rows:
            key = self.project(tid, attrs)
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def union(self, other: "Table") -> "Table":
        """Disjoint union of two tables over the same schema.

        Used to stitch per-group repairs back together; identifier sets
        must be disjoint.
        """
        if other.schema != self._schema:
            raise ValueError("schema mismatch in union")
        overlap = set(self._rows) & set(other._rows)
        if overlap:
            raise ValueError(f"overlapping identifiers in union: {sorted(map(str, overlap))}")
        rows = dict(self._rows)
        rows.update(other._rows)
        weights = dict(self._weights)
        weights.update(other._weights)
        return Table._from_trusted(
            self._schema, rows, weights, self.name, self._index
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def with_updates(
        self, updates: Mapping[Tuple[TupleId, Attribute], Value]
    ) -> "Table":
        """A new table with the given ``(id, attribute) → value`` updates.

        Identifier set and weights are unchanged, as required of an update
        of T (Section 2.3).
        """
        changed: Dict[TupleId, List[Value]] = {}
        for (tid, attr), value in updates.items():
            if tid not in self._rows:
                raise KeyError(f"unknown identifier {tid!r}")
            vals = changed.get(tid)
            if vals is None:
                vals = changed[tid] = list(self._rows[tid])
            vals[self._index[attr]] = value
        rows = {
            tid: (tuple(changed[tid]) if tid in changed else row)
            for tid, row in self._rows.items()
        }
        return Table._from_trusted(
            self._schema, rows, dict(self._weights), self.name, self._index
        )

    def is_subset_of(self, other: "Table") -> bool:
        """True iff self is a subset of *other* (ids, rows, and weights).

        Dict-view containment runs at C speed; it is exercised on every
        repair (``dist_sub`` validates its argument), so the naive
        per-tuple Python loop was a measurable slice of the streaming
        session's per-delta cost.
        """
        if other.schema != self._schema:
            return False
        return (
            self._rows.items() <= other._rows.items()
            and self._weights.items() <= other._weights.items()
        )

    def is_update_of(self, other: "Table") -> bool:
        """True iff self is an update of *other* (same ids and weights)."""
        if other.schema != self._schema:
            return False
        if set(self._rows) != set(other.ids()):
            return False
        return all(self._weights[tid] == other.weight(tid) for tid in self._rows)

    def changed_cells(self, original: "Table") -> List[Tuple[TupleId, Attribute]]:
        """The cells on which self (an update of *original*) differs."""
        out: List[Tuple[TupleId, Attribute]] = []
        for tid, row in self._rows.items():
            orig = original[tid]
            for i, attr in enumerate(self._schema):
                if row[i] != orig[i]:
                    out.append((tid, attr))
        return out

    # ------------------------------------------------------------------
    # Distances (Section 2.3)
    # ------------------------------------------------------------------
    def dist_sub(self, subset: "Table") -> float:
        """``dist_sub(S, T)`` — total weight of the tuples missing from S.

        ``self`` is the original table T; *subset* must be a subset of T.
        The sum is :func:`math.fsum` — exact, so it does not depend on
        the order the missing tuples are visited in, and it equals the
        distance a decomposed repair sums from its per-component
        deletions.
        """
        if not subset.is_subset_of(self):
            raise ValueError("dist_sub: argument is not a subset of this table")
        missing = self._rows.keys() - subset._rows.keys()
        return math.fsum(self._weights[tid] for tid in missing)

    def dist_upd(self, update: "Table") -> float:
        """``dist_upd(U, T)`` — weighted Hamming distance of an update."""
        if not update.is_update_of(self):
            raise ValueError("dist_upd: argument is not an update of this table")
        return sum(
            self._weights[tid] * hamming_distance(row, update[tid])
            for tid, row in self._rows.items()
        )

    # ------------------------------------------------------------------
    # Display / export
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        """Rows as dicts including ``id`` and ``weight`` keys."""
        out = []
        for tid, row, weight in self.tuples():
            rec: Dict[str, Any] = {"id": tid}
            rec.update(zip(self._schema, row))
            rec["weight"] = weight
            out.append(rec)
        return out

    def to_string(self) -> str:
        """A small fixed-width rendering, in the style of Figure 1."""
        headers = ["id", *self._schema, "w"]
        body = [
            [str(tid), *[str(v) for v in row], f"{weight:g}"]
            for tid, row, weight in self.tuples()
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Table({self.name}, {len(self)} tuples, schema={self._schema})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self._schema == other._schema
            and self._rows == other._rows
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._schema,
                frozenset(self._rows.items()),
                frozenset(self._weights.items()),
            )
        )


class _DeferredTable(Table):
    """*parent* without the ids in *groups* (id sequences of *parent*),
    in table order, its row and weight dicts built on their first read.

    A decomposed repair is its input minus the deleted ids; most callers
    of a streaming repair read only its distance and report, so paying
    O(|T|) to build every repaired table would make each delta O(|T|).
    The parent must stay unchanged, as every table does.  Until built,
    the ``_rows``/``_weights`` slots are unset, so reading one falls
    through to :meth:`__getattr__`; afterwards the table is an ordinary
    one, and it pickles and copies as a plain :class:`Table`.
    """

    __slots__ = ("_parent", "_dropped")

    def __init__(self, parent: Table,
                 groups: Sequence[Sequence[TupleId]]) -> None:
        self._schema = parent._schema
        self.name = parent.name
        self._index = parent._index
        self._cache = {}
        self._parent = parent
        self._dropped = groups

    def __getattr__(self, name: str):
        if name not in ("_rows", "_weights"):
            raise AttributeError(name)
        parent = self._parent
        if parent is not None:
            dropped = set().union(*self._dropped)
            rows = {
                tid: row for tid, row in parent._rows.items()
                if tid not in dropped
            }
            weights = parent._weights
            self._weights = {tid: weights[tid] for tid in rows}
            self._rows = rows
            # Released only once both slots are set, so a concurrent
            # first read that finds no parent finds them filled.
            self._parent = None
        return object.__getattribute__(self, name)

    def __reduce__(self):
        return object.__new__, (Table,), self.__getstate__()
