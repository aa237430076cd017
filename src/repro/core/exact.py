"""Exact (worst-case exponential) baselines for both repair problems.

These solvers make the paper's claims *testable*: on the tractable side we
cross-check ``OptSRepair`` against them, and on the APX-complete side they
provide the optimum against which approximation ratios are measured.

* :func:`exact_s_repair` — optimal S-repair for **any** Δ.  For FDs,
  consistency is pairwise, so a subset is consistent iff it is an
  independent set of the conflict graph; the optimal S-repair is the
  complement of a minimum-weight vertex cover, which we solve exactly by
  branch & bound (:mod:`repro.graphs.vertex_cover`).  This is the same
  reduction the paper uses for Proposition 3.3, run to optimality.
* :func:`brute_force_s_repair` — subset enumeration, for sanity checks on
  very small tables.
* :func:`exact_u_repair` — optimal U-repair by iterative deepening on the
  number of changed cells.  Candidate values for a changed cell are the
  attribute's active domain plus ``d`` fresh labelled nulls when at most
  ``d`` cells change; since FD satisfaction sees only the equality pattern
  of values, this candidate set preserves optimality.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..graphs.vertex_cover import ExactBudgetExceeded, exact_min_weight_vertex_cover
from . import kernel as _kernel
from .conflict_index import ConflictIndex
from .fd import FDSet
from .table import FreshValue, Table, TupleId, Value
from .violations import satisfies

__all__ = [
    "exact_s_repair",
    "exact_cover_of_index",
    "brute_force_s_repair",
    "exact_u_repair",
    "exact_u_repair_exhaustive",
    "ExactBudgetExceeded",
    "ExactSearchLimit",
]


class ExactSearchLimit(Exception):
    """Raised when an exact search would exceed its configured budget."""


def exact_cover_of_index(
    index: ConflictIndex,
    node_limit: int = 2000,
    budget_s: Optional[float] = None,
) -> List[TupleId]:
    """Exact minimum-weight vertex cover of a live index, in table order.

    The dispatch point of the exact portfolio method: a kernel-backed
    index of at most :data:`~repro.core.kernel.MAX_BITMASK_VERTICES`
    tuples is solved by the memoised multi-word bitset branch & bound
    (:class:`~repro.core.kernel.BitsetVC` — no ``Graph``
    materialisation, no per-branch graph copies, components well past 64
    vertices included); anything else runs the graph-based reference.
    The bitset solver mirrors the reference decision for decision, so
    the two return the *identical* cover — returned as a table-ordered
    list either way, keeping every downstream float summation
    order-canonical.

    *budget_s* bounds the wall-clock of either solver; on expiry
    :class:`~repro.graphs.vertex_cover.ExactBudgetExceeded` propagates
    so callers can fall back to the polynomial bounds.
    """
    if (
        index._use_kernel
        and len(index) <= node_limit
        and len(index) <= _kernel.MAX_BITMASK_VERTICES
    ):
        return _kernel.exact_cover_ids(index, budget_s=budget_s)
    cover = exact_min_weight_vertex_cover(
        index.graph(), node_limit=node_limit, budget_s=budget_s
    )
    return [tid for tid in index.ids() if tid in cover]


def exact_s_repair(
    table: Table,
    fds: FDSet,
    node_limit: int = 2000,
    index: Optional[ConflictIndex] = None,
    exact_budget_s: Optional[float] = None,
) -> Table:
    """Optimal S-repair via exact minimum-weight vertex cover.

    Works for every FD set; exponential in the conflict-graph size in the
    worst case but very effective on the sparse conflict graphs produced
    by realistic dirtiness levels.  The cover comes from
    :func:`exact_cover_of_index` over the cached (or prebuilt)
    :class:`ConflictIndex`: the bitmask kernel on small kernel-backed
    instances, the graph-based branch & bound beyond.  *node_limit*
    guards the whole instance; :func:`repro.pipeline.clean` runs this
    per conflict component, where it guards each component instead.
    """
    if index is None:
        index = table.conflict_index(fds)
    else:
        index.ensure_for(fds, table)
    cover = set(
        exact_cover_of_index(index, node_limit=node_limit, budget_s=exact_budget_s)
    )
    keep = [tid for tid in table.ids() if tid not in cover]
    return table.subset(keep)


def brute_force_s_repair(table: Table, fds: FDSet, max_tuples: int = 20) -> Table:
    """Optimal S-repair by enumerating all subsets (tiny tables only)."""
    ids = table.ids()
    if len(ids) > max_tuples:
        raise ExactSearchLimit(
            f"brute force limited to {max_tuples} tuples, got {len(ids)}"
        )
    best: Optional[Table] = None
    best_deleted = float("inf")
    for r in range(len(ids) + 1):
        if best is not None and best_deleted == 0:
            break
        for kept in itertools.combinations(ids, len(ids) - r):
            candidate = table.subset(kept)
            if satisfies(candidate, fds):
                deleted = table.total_weight() - candidate.total_weight()
                if deleted < best_deleted:
                    best = candidate
                    best_deleted = deleted
        # All subsets of size len-r examined; any larger deletion count can
        # only match or worsen the unweighted count but weights may differ,
        # so we keep scanning every size.
    assert best is not None  # the empty subset is always consistent
    return best


def _candidate_values(
    table: Table,
    attr: str,
    current: Value,
    fresh: Sequence[FreshValue],
) -> List[Value]:
    """Values a changed cell may take: active domain ∖ {current} + nulls."""
    values: List[Value] = [
        v for v in sorted(table.active_domain(attr), key=repr) if v != current
    ]
    values.extend(fresh)
    return values


def exact_u_repair_exhaustive(
    table: Table,
    fds: FDSet,
    max_changes: Optional[int] = None,
    upper_bound: Optional[float] = None,
    cell_budget: int = 2_000_000,
) -> Table:
    """Optimal U-repair by iterative deepening over changed-cell count.

    For each depth ``d`` we try every choice of ``d`` cells and every
    assignment of candidate values (active domain + ``d`` shared fresh
    nulls).  The search stops as soon as every undiscovered solution with
    more changes is provably at least as expensive as the best found
    (``d · min-weight ≥ best cost``).

    This is the *reference* exact solver: trivially correct but limited to
    tiny instances.  Prefer :func:`exact_u_repair` (conflict-driven branch
    & bound), which this one cross-validates in the test suite.

    Parameters
    ----------
    max_changes:
        Hard cap on the number of changed cells (default: all cells).
    upper_bound:
        Known upper bound on the optimal cost (e.g. from an approximation);
        used for pruning only.
    cell_budget:
        Safety valve on the number of (cell-set × assignment) combinations
        explored; :class:`ExactSearchLimit` is raised when exceeded.
    """
    fds = fds.with_singleton_rhs()
    if satisfies(table, fds):
        return table

    ids = table.ids()
    schema = table.schema
    cells: List[Tuple[TupleId, str]] = [
        (tid, attr) for tid in ids for attr in schema
    ]
    if max_changes is None:
        max_changes = len(cells)
    min_weight = min(table.weight(tid) for tid in ids)

    best: Optional[Table] = None
    best_cost = float("inf") if upper_bound is None else float(upper_bound)

    explored = 0
    for depth in range(1, max_changes + 1):
        if depth * min_weight >= best_cost:
            break
        fresh = [FreshValue(f"⊥{i}") for i in range(depth)]
        for cell_set in itertools.combinations(cells, depth):
            cost_if_all = sum(table.weight(tid) for tid, _ in cell_set)
            if cost_if_all >= best_cost:
                continue
            pools = [
                _candidate_values(table, attr, table.value(tid, attr), fresh)
                for tid, attr in cell_set
            ]
            for assignment in itertools.product(*pools):
                explored += 1
                if explored > cell_budget:
                    raise ExactSearchLimit(
                        f"exact U-repair search exceeded budget of "
                        f"{cell_budget} assignments"
                    )
                updates = dict(zip(cell_set, assignment))
                candidate = table.with_updates(updates)
                if satisfies(candidate, fds):
                    cost = table.dist_upd(candidate)
                    if cost < best_cost:
                        best = candidate
                        best_cost = cost
        if best is not None and (depth + 1) * min_weight >= best_cost:
            break

    if best is None:
        # No solution within max_changes; fall back to the always-valid
        # "make all tuples identical" update if allowed, else fail loudly.
        raise ExactSearchLimit(
            f"no consistent update found within {max_changes} cell changes"
        )
    return best


def exact_u_repair(
    table: Table,
    fds: FDSet,
    upper_bound: Optional[float] = None,
    node_budget: int = 1_000_000,
    max_changes: Optional[int] = None,
    cell_budget: Optional[int] = None,
    allowed_values: Optional[Dict[str, Iterable[Value]]] = None,
    use_lower_bound: bool = True,
    stats: Optional[Dict[str, int]] = None,
) -> Table:
    """Optimal U-repair by conflict-driven branch & bound.

    At each node the search finds one violating pair ``(i, j)`` of an FD
    ``X → A``.  Any consistent update must modify at least one of the
    cells ``{(i, B), (j, B) : B ∈ X ∪ {A}}`` — no other cell can resolve
    this particular violation — so we branch on *which* of those cells is
    the first (in a fixed order) to change, freezing the earlier ones at
    their current values to avoid revisiting assignments.  Candidate
    values are the attribute's active domain plus the fresh labelled nulls
    already used on the current path plus one brand-new null (canonical
    fresh-value labelling: fresh values are interchangeable, so exploring
    one new label per step is exhaustive up to renaming).

    Pruning is by path cost against the best solution found (optionally
    seeded with *upper_bound*).  ``max_changes``/``cell_budget`` are
    accepted for signature compatibility with
    :func:`exact_u_repair_exhaustive`; ``cell_budget`` caps search nodes.

    ``allowed_values`` implements the restriction the paper poses as
    future work (Section 5): when it maps an attribute to a finite set of
    permitted replacement values, updates to that attribute may only use
    those values and fresh labelled nulls are disabled for it.  With
    restricted domains a consistent update may not exist at all, in which
    case :class:`ExactSearchLimit` is raised.

    The problem is APX-complete in general (Theorem 4.10): worst-case
    exponential, but this solver comfortably handles the benchmark
    instances (tens of tuples at small repair distances).

    ``use_lower_bound`` toggles the matching bound (ablation hook, see
    benchmark E17); ``stats`` — when a dict is passed — receives the
    number of explored search nodes under key ``"nodes"``.
    """
    fds = fds.with_singleton_rhs().without_trivial()
    if stats is not None:
        stats["nodes"] = 0
    if satisfies(table, fds):
        return table
    if cell_budget is not None:
        node_budget = cell_budget

    schema = table.schema
    index = {attr: position for position, attr in enumerate(schema)}
    rows: Dict[TupleId, List[Value]] = {
        tid: list(row) for tid, row in table.rows().items()
    }
    weights = table.weights()
    active: Dict[str, List[Value]] = {
        attr: sorted(table.active_domain(attr), key=repr) for attr in schema
    }
    fd_parts = [
        (sorted(fd.lhs), next(iter(fd.rhs))) for fd in fds
    ]
    max_changes = len(rows) * len(schema) if max_changes is None else max_changes

    best_updates: Optional[Dict[Tuple[TupleId, str], Value]] = None
    best_cost = float("inf") if upper_bound is None else float(upper_bound)
    nodes = 0

    def iter_violations():
        for lhs, rhs in fd_parts:
            groups: Dict[Tuple[Value, ...], List[TupleId]] = {}
            for tid, row in rows.items():
                key = tuple(row[index[a]] for a in lhs)
                groups.setdefault(key, []).append(tid)
            for ids in groups.values():
                if len(ids) < 2:
                    continue
                buckets: Dict[Value, List[TupleId]] = {}
                for tid in ids:
                    buckets.setdefault(rows[tid][index[rhs]], []).append(tid)
                if len(buckets) < 2:
                    continue
                groups_list = list(buckets.values())
                for gi in range(len(groups_list)):
                    for gj in range(gi + 1, len(groups_list)):
                        for t1 in groups_list[gi]:
                            for t2 in groups_list[gj]:
                                yield t1, t2, lhs, rhs

    def find_violation() -> Optional[Tuple[TupleId, TupleId, List[str], str]]:
        for violation in iter_violations():
            return violation
        return None

    def lower_bound() -> float:
        """Admissible bound: a greedy maximal matching over violating
        pairs (tuple-disjoint).  Each matched pair must see a change in a
        cell of one of its two tuples, and distinct pairs use distinct
        tuples, hence distinct cells; every change costs at least the
        lighter tuple's weight."""
        used_tuples: set = set()
        bound = 0.0
        for t1, t2, _lhs, _rhs in iter_violations():
            if t1 in used_tuples or t2 in used_tuples:
                continue
            used_tuples.add(t1)
            used_tuples.add(t2)
            bound += min(weights[t1], weights[t2])
        return bound

    def search(
        changed: Dict[Tuple[TupleId, str], Value],
        frozen: frozenset,
        cost: float,
        fresh_used: Tuple[FreshValue, ...],
    ) -> None:
        nonlocal best_updates, best_cost, nodes
        nodes += 1
        if nodes > node_budget:
            raise ExactSearchLimit(
                f"exact U-repair branch & bound exceeded {node_budget} nodes"
            )
        if cost >= best_cost:
            return
        violation = find_violation()
        if violation is None:
            best_updates = dict(changed)
            best_cost = cost
            return
        if len(changed) >= max_changes:
            return
        if use_lower_bound and cost + lower_bound() >= best_cost:
            return
        tid1, tid2, lhs, rhs = violation
        cells = []
        for tid in (tid1, tid2):
            for attr in (*lhs, rhs):
                cell = (tid, attr)
                if cell not in cells:
                    cells.append(cell)
        mutable = [c for c in cells if c not in changed and c not in frozen]
        for k, (tid, attr) in enumerate(mutable):
            weight = weights[tid]
            if cost + weight >= best_cost:
                continue
            branch_frozen = frozen | frozenset(mutable[:k])
            position = index[attr]
            original = rows[tid][position]
            new_fresh = FreshValue()
            if allowed_values is not None and attr in allowed_values:
                candidates: List[Value] = [
                    v
                    for v in sorted(allowed_values[attr], key=repr)
                    if v != original
                ]
            else:
                candidates = [v for v in active[attr] if v != original]
                candidates.extend(fresh_used)
                candidates.append(new_fresh)
            for value in candidates:
                rows[tid][position] = value
                changed[(tid, attr)] = value
                next_fresh = (
                    fresh_used + (new_fresh,) if value is new_fresh else fresh_used
                )
                search(changed, branch_frozen, cost + weight, next_fresh)
                del changed[(tid, attr)]
                rows[tid][position] = original

    try:
        search({}, frozenset(), 0.0, ())
    finally:
        if stats is not None:
            stats["nodes"] = nodes
    if best_updates is None:
        raise ExactSearchLimit(
            "no consistent update found within the configured limits"
        )
    return table.with_updates(best_updates)
