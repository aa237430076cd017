"""Approximation algorithms and approximation-ratio formulas (§3.1, §4.4).

S-repairs
---------
:func:`approx_s_repair` implements Proposition 3.3: the conflict graph's
minimum-weight vertex cover is 2-approximated by the Bar-Yehuda–Even
local-ratio algorithm; deleting the cover yields a 2-optimal S-repair.
We additionally grow the kept set to a *maximal* independent set, which
can only reduce the distance and makes the result a subset repair in the
local-minimum sense.

U-repairs
---------
:func:`approx_u_repair` implements Theorem 4.12 (ratio ``2·mlc(Δ)``),
strengthened by Theorem 4.1 (attribute-disjoint decomposition, the ratio
becomes ``2·max_i mlc(Δ_i)``) and Theorem 4.3 (consensus attributes are
repaired optimally by weighted majority and cost nothing extra).
The construction is Proposition 4.4(2): compute a (2-approximate) S-repair
and update a minimum lhs cover of every deleted tuple to fresh constants.

Ratio formulas
--------------
``MFS(Δ)``, ``MCI(Δ)`` and the Kolahi–Lakshmanan guarantee
``(MCI+2)(2·MFS−1)`` of Theorem 4.13 are computed exactly from Δ, enabling
the Section 4.4 comparison between the two incomparable guarantees (our
``2·mlc`` is Θ(k) on ``Δ_k`` where theirs is Θ(k²), and vice versa on
``Δ'_k``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..graphs.vertex_cover import bar_yehuda_even, maximalize_independent_set
from .conflict_index import ConflictIndex
from .fd import FDSet, AttrSet, attrset
from .srepair import SRepairResult
from .table import FreshValue, Table, TupleId

__all__ = [
    "approx_s_repair",
    "greedy_s_repair",
    "approx_u_repair",
    "u_repair_from_s_repair",
    "s_repair_from_u_repair",
    "consensus_majority_update",
    "mfs",
    "minimal_implicants",
    "minimal_implicants_brute",
    "core_implicant_size",
    "mci",
    "kl_ratio",
    "our_ratio",
]


# ---------------------------------------------------------------------------
# S-repair 2-approximation (Proposition 3.3)
# ---------------------------------------------------------------------------

def approx_s_repair(
    table: Table,
    fds: FDSet,
    index: Optional[ConflictIndex] = None,
) -> SRepairResult:
    """A 2-optimal S-repair in polynomial time (Proposition 3.3).

    Takes a Bar-Yehuda–Even 2-approximate minimum-weight vertex cover of
    the conflict graph and keeps the complement (grown to a maximal
    independent set).  The deleted weight is at most twice the optimum;
    the reduction is strict, so the bound transfers verbatim.

    Both vertex-cover passes read the (cached or prebuilt)
    :class:`ConflictIndex` directly — no per-call graph rebuild.
    BYE's local-ratio payments and the maximalisation are both
    component-local operations, so running the construction per
    conflict component (:func:`repro.pipeline.clean`) yields the
    *identical* repair.
    """
    if index is None:
        index = table.conflict_index(fds)
    else:
        index.ensure_for(fds, table)
    cover = bar_yehuda_even(index)
    independent = {tid for tid in table.ids() if tid not in cover}
    independent = maximalize_independent_set(index, independent)
    repair = table.subset([tid for tid in table.ids() if tid in independent])
    return SRepairResult(
        repair=repair,
        distance=table.dist_sub(repair),
        optimal=False,
        ratio_bound=2.0,
        method="bar-yehuda-even",
    )


def greedy_s_repair(
    table: Table,
    fds: FDSet,
    index: Optional[ConflictIndex] = None,
) -> SRepairResult:
    """A fast heuristic S-repair by greedy conflict-driven deletion.

    Repeatedly deletes the live tuple minimising weight/degree until no
    conflict remains, then grows the survivors to a maximal independent
    set of the original index.  A kernel-backed index runs the loop
    array-native — flat weight/degree arrays and ``alive`` flags over
    the CSR view (or neighbour bitmasks on a small live index), see
    :func:`repro.core.kernel.greedy_cover_csr` — with the identical
    victim sequence; the reference works on a mutable index copy, each
    deletion an *incremental* update (O(degree + |Δ|)).  Victims come
    off a lazy min-heap either way, so the loop is
    O((|T| + conflicts)·log |T|) — the seed equivalent rebuilt the
    conflict structure per deletion.

    No approximation guarantee (classic weight/degree greedy can be off
    by Θ(log n)); exists as the cheap entry in benchmark comparisons and
    as the canonical consumer of incremental index maintenance.
    Victims in one conflict component never change weight/degree keys
    in another, so the per-component survivor set equals the global one.
    """
    if index is None:
        index = table.conflict_index(fds)
    else:
        index.ensure_for(fds, table)
    survivors = index.kernel_greedy_survivors()
    if survivors is None:
        live = index.copy()
        # Lazy heap: removal only ever *lowers* neighbours' degrees, i.e.
        # raises their weight/degree key, so a popped entry whose stored
        # key is stale (too small) is re-pushed at its current key; the
        # first up-to-date pop is the true minimum.  Ties break by
        # str(tid), then table position — ids themselves may be of mixed,
        # unorderable types, so they must never reach the tuple
        # comparison.
        heap = [
            (live.weight(tid) / degree, str(tid), position, tid)
            for position, tid in enumerate(live.ids())
            if (degree := live.degree(tid)) > 0
        ]
        heapq.heapify(heap)
        while not live.is_consistent():
            key, label, position, tid = heapq.heappop(heap)
            if tid not in live:
                continue
            degree = live.degree(tid)
            if degree == 0:
                continue  # conflict-free now; degrees never rise again
            current = live.weight(tid) / degree
            if current > key:
                heapq.heappush(heap, (current, label, position, tid))
                continue
            live.remove(tid)
        survivors = set(live.ids())
    independent = maximalize_independent_set(index, survivors)
    repair = table.subset([tid for tid in table.ids() if tid in independent])
    return SRepairResult(
        repair=repair,
        distance=table.dist_sub(repair),
        optimal=False,
        ratio_bound=float("inf"),
        method="greedy-degree (incremental index)",
    )


# ---------------------------------------------------------------------------
# The Proposition 4.4 constructions
# ---------------------------------------------------------------------------

def s_repair_from_u_repair(table: Table, update: Table) -> Table:
    """Proposition 4.4(1): consistent update → consistent subset.

    Keep exactly the tuples the update left intact.  The deleted weight is
    at most the update distance, because every deleted tuple had at least
    one changed cell.
    """
    keep = [
        tid for tid in table.ids() if update[tid] == table[tid]
    ]
    return table.subset(keep)


def u_repair_from_s_repair(
    table: Table,
    fds: FDSet,
    s_repair: Table,
    cover: Optional[AttrSet] = None,
) -> Table:
    """Proposition 4.4(2): consistent subset → consistent update.

    Requires a consensus-free Δ.  Every tuple missing from the subset gets
    the attributes of an lhs cover ``C`` (default: a minimum one) replaced
    by fresh constants; tuples of the subset stay intact.  Two distinct
    tuples can then agree on the lhs of an FD only if both are intact, so
    the result is consistent, at distance ``|C| · dist_sub(s_repair)``.
    """
    if not fds.is_consensus_free:
        raise ValueError(
            "u_repair_from_s_repair requires a consensus-free FD set "
            "(Proposition 4.4); strip consensus attributes first "
            "(Theorem 4.3)"
        )
    if cover is None:
        cover = fds.minimum_lhs_cover()
    kept = set(s_repair.ids())
    updates = {}
    for tid in table.ids():
        if tid in kept:
            continue
        for attr in sorted(cover):
            updates[(tid, attr)] = FreshValue()
    return table.with_updates(updates)


# ---------------------------------------------------------------------------
# Consensus attributes: optimal update by weighted majority (Prop. B.2)
# ---------------------------------------------------------------------------

def consensus_majority_update(
    table: Table, attributes: AttrSet
) -> Dict[Tuple[TupleId, str], object]:
    """Optimal cell updates enforcing ``∅ → A`` for each A in *attributes*.

    For each attribute independently, keep the value of maximum total
    weight and rewrite every other cell to it (Proposition B.2 /
    Corollary B.3; per-attribute decoupling is valid because the weighted
    Hamming distance is a sum over attributes and any value combination is
    permitted).  Returns the update mapping; empty table → no updates.
    """
    updates: Dict[Tuple[TupleId, str], object] = {}
    if not len(table):
        return updates
    for attr in sorted(attributes):
        weight_by_value: Dict[object, float] = {}
        for tid, _row, weight in table.tuples():
            value = table.value(tid, attr)
            weight_by_value[value] = weight_by_value.get(value, 0.0) + weight
        majority = max(
            weight_by_value.items(), key=lambda item: (item[1], -_rank(table, attr, item[0]))
        )[0]
        for tid in table.ids():
            if table.value(tid, attr) != majority:
                updates[(tid, attr)] = majority
    return updates


def _rank(table: Table, attr: str, value: object) -> int:
    """First-seen position of *value* in column *attr* (tie-breaking)."""
    for position, tid in enumerate(table.ids()):
        if table.value(tid, attr) == value:
            return position
    return len(table)


# ---------------------------------------------------------------------------
# U-repair approximation (Theorem 4.12 + Theorems 4.1/4.3)
# ---------------------------------------------------------------------------

def approx_u_repair(
    table: Table, fds: FDSet, index: Optional[ConflictIndex] = None
) -> "URepairApproxResult":
    """A ``2·max_i mlc(Δ_i)``-optimal U-repair in polynomial time.

    Pipeline (each step cites its justification):

    1. normalise Δ; split into attribute-disjoint components — solving
       each independently preserves any ratio (Theorem 4.1);
    2. per component, repair the consensus attributes ``cl_Δ(∅)`` by
       weighted majority — optimal and free of ratio loss (Theorem 4.3,
       Proposition B.2), then recurse on ``Δ − cl_Δ(∅)``;
    3. per consensus-free component, compute a 2-approximate S-repair
       (Proposition 3.3) and convert it with Proposition 4.4(2) using a
       minimum lhs cover — ratio ``2·mlc`` (Theorem 4.12).

    A consistent table short-circuits to the zero-update result — via the
    prebuilt :class:`ConflictIndex` when passed (or the table's cached
    one), by streaming detection otherwise — so the reported guarantee
    never depends on whether an index was supplied.  Per-component
    S-repair subcalls share the table's index cache regardless.
    """
    from .urepair import URepairApproxResult  # avoid import cycle
    from .violations import satisfies

    normalised = fds.with_singleton_rhs().without_trivial()
    if index is not None:
        index.ensure_for(fds, table)
        consistent = index.is_consistent()
    else:
        consistent = satisfies(table, fds)
    if consistent:
        return URepairApproxResult(
            update=table,
            distance=0.0,
            optimal=True,
            ratio_bound=1.0,
            method="already consistent",
        )
    updates: Dict[Tuple[TupleId, str], object] = {}
    ratio = 1.0
    for component in normalised.attribute_disjoint_components():
        component_ratio = _approx_component(table, component, updates)
        ratio = max(ratio, component_ratio)
    update = table.with_updates(updates)
    return URepairApproxResult(
        update=update,
        distance=table.dist_upd(update),
        optimal=False,
        ratio_bound=ratio,
        method="2·mlc approximation (Thm 4.12 + Thm 4.1/4.3)",
    )


def _approx_component(
    table: Table, fds: FDSet, updates: Dict[Tuple[TupleId, str], object]
) -> float:
    """Approximate one attribute-disjoint component; returns its ratio."""
    consensus = fds.consensus_attributes()
    if consensus:
        updates.update(consensus_majority_update(table, consensus))
        rest = fds.minus(consensus).without_trivial()
        ratio = 1.0
        for sub in rest.attribute_disjoint_components():
            ratio = max(ratio, _approx_component(table, sub, updates))
        return ratio
    if fds.is_trivial:
        return 1.0
    cover = fds.minimum_lhs_cover()
    s_result = approx_s_repair(table, fds)
    converted = u_repair_from_s_repair(table, fds, s_result.repair, cover)
    for cell in converted.changed_cells(table):
        updates[cell] = converted.value(*cell)
    return 2.0 * len(cover)


# ---------------------------------------------------------------------------
# Ratio formulas (Section 4.4)
# ---------------------------------------------------------------------------

def mfs(fds: FDSet) -> int:
    """``MFS(Δ)`` — the maximum lhs size over Δ in singleton-rhs form."""
    normalised = fds.with_singleton_rhs().without_trivial()
    return max((len(fd.lhs) for fd in normalised), default=0)


def minimal_implicants_brute(fds: FDSet, attribute: str) -> List[AttrSet]:
    """Minimal implicants by subset enumeration (reference baseline).

    Exponential in ``|attr(Δ)|``; used to cross-validate
    :func:`minimal_implicants` on small FD sets.
    """
    universe = sorted(fds.attributes - {attribute})
    found: List[AttrSet] = []
    for size in range(0, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            if attribute in fds.closure(cand):
                found.append(cand)
    return found


def _implicant_antichains(
    fds: FDSet, combo_limit: int = 250_000
) -> Dict[str, Set[AttrSet]]:
    """For every attribute, the antichain of minimal implicant sets.

    Backward chaining to a fixpoint: each attribute starts with its
    trivial implicant ``{A}``; an FD ``Z → B`` contributes, for every
    choice of one implicant per attribute of Z, the union of the chosen
    sets as an implicant of B.  Insertions keep each family an antichain
    (supersets pruned), so the fixpoint holds exactly the minimal
    implicants (plus the trivial singleton).  Far faster than subset
    enumeration for the FD sets of Section 4.4's families.
    """
    normalised = fds.with_singleton_rhs().without_trivial()
    # Seed with the *unnormalised* attribute set: attributes whose FDs all
    # normalise away still have their trivial implicant.
    anti: Dict[str, Set[AttrSet]] = {
        a: {frozenset((a,))}
        for a in sorted(fds.attributes | normalised.attributes)
    }
    changed = True
    while changed:
        changed = False
        for fd in normalised:
            (target,) = tuple(fd.rhs)
            pools = [sorted(anti[a], key=sorted) for a in sorted(fd.lhs)]
            size = 1
            for pool in pools:
                size *= len(pool)
            if size > combo_limit:
                raise ValueError(
                    f"implicant computation exceeds {combo_limit} "
                    f"combinations for {fd}; use minimal_implicants_brute"
                )
            for combo in itertools.product(*pools):
                cand: AttrSet = frozenset().union(*combo)
                if any(existing <= cand for existing in anti[target]):
                    continue
                anti[target] = {
                    x for x in anti[target] if not cand <= x
                } | {cand}
                changed = True
    return anti


def minimal_implicants(fds: FDSet, attribute: str) -> List[AttrSet]:
    """All minimal implicants of *attribute* (Section 4.4 terminology).

    An implicant of A is a set X of attributes with ``A ∉ X`` and
    ``Δ ⊨ X → A``; the inclusion-minimal ones are computed by the
    backward-chaining fixpoint of :func:`_implicant_antichains`.
    """
    if attribute not in fds.attributes:
        return []
    antichain = _implicant_antichains(fds)[attribute]
    return sorted(
        (x for x in antichain if attribute not in x),
        key=lambda x: (len(x), sorted(x)),
    )


def core_implicant_size(
    fds: FDSet,
    attribute: str,
    implicants: Optional[List[AttrSet]] = None,
) -> int:
    """Size of a minimum core implicant of *attribute*.

    A core implicant hits every implicant of A; hitting all *minimal*
    implicants suffices.  Returns 0 when A has no implicants at all.
    Pass precomputed *implicants* to avoid recomputation.
    """
    if implicants is None:
        implicants = minimal_implicants(fds, attribute)
    if not implicants:
        return 0
    if any(not x for x in implicants):
        # ∅ is an implicant (A is a consensus attribute): no finite set
        # hits ∅; Kolahi–Lakshmanan assume consensus-free FD sets, and so
        # do we here.
        raise ValueError(
            f"core implicant undefined: {attribute} is a consensus attribute"
        )
    universe = sorted(set().union(*implicants))
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            cand = frozenset(combo)
            if all(x & cand for x in implicants):
                return size
    raise AssertionError("unreachable: the union of implicants is a hitting set")


def mci(fds: FDSet) -> int:
    """``MCI(Δ)`` — the largest minimum core implicant over all attributes."""
    if not fds.attributes:
        return 0
    antichains = _implicant_antichains(fds)
    best = 0
    for attribute in sorted(fds.attributes):
        implicants = [
            x for x in antichains[attribute] if attribute not in x
        ]
        best = max(best, core_implicant_size(fds, attribute, implicants))
    return best


def kl_ratio(fds: FDSet) -> int:
    """Kolahi–Lakshmanan's guarantee ``(MCI(Δ)+2)·(2·MFS(Δ)−1)``
    (Theorem 4.13)."""
    return (mci(fds) + 2) * (2 * mfs(fds) - 1)


def our_ratio(fds: FDSet) -> float:
    """This paper's guarantee ``2·max_i mlc(Δ_i)`` (Thm 4.12 + Thm 4.1).

    Consensus attributes are stripped first (Theorem 4.3 keeps the ratio);
    a trivial remainder means the U-repair is computed exactly (ratio 1).
    """
    normalised = fds.with_singleton_rhs().without_trivial()
    stripped = normalised.minus(normalised.consensus_attributes()).without_trivial()
    ratio = 1.0
    for component in stripped.attribute_disjoint_components():
        if component.is_trivial:
            continue
        ratio = max(ratio, 2.0 * component.mlc())
    return ratio
