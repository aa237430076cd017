"""Optimal and best-effort update repairs (Section 4 of the paper).

Unlike S-repairs, U-repairs have no known full dichotomy; the paper
instead provides a toolbox of reductions and tractable cases, which this
module assembles into a single dispatcher:

1. **Decomposition** (Theorem 4.1): attribute-disjoint components of Δ are
   repaired independently and their updates composed; optimality and
   approximation ratios are preserved, and distances add up
   (Proposition B.1).
2. **Consensus elimination** (Theorem 4.3): the consensus attributes
   ``cl_Δ(∅)`` are repaired optimally by weighted per-attribute majority
   (Proposition B.2 / Corollary B.3), then ``Δ − cl_Δ(∅)`` is solved.
3. **Common lhs** (Corollary 4.6): when the consensus-free component has a
   common lhs and passes ``OSRSucceeds``, the optimal U-repair distance
   equals the optimal S-repair distance; the Proposition 4.4(2)
   construction with a singleton lhs cover attains it.  Chain FD sets
   (Corollary 4.8) are covered by this case after step 2.
4. **Two-cycle** ``{A→B, B→A}`` (Proposition 4.9): optimal S-repair plus a
   one-cell copy fix per deleted tuple attains the S-repair distance.
5. **Exact search** for small residual instances
   (:func:`repro.core.exact.exact_u_repair`).
6. **Approximation** (Theorem 4.12): the ``2·mlc`` construction, with the
   per-component ratio bound reported in the result.

The dispatcher therefore returns *provably optimal* repairs exactly on
the cases the paper proves tractable (plus exhaustively-searched small
instances), and flagged approximations elsewhere — mirroring the paper's
partial tractability landscape, including its APX-complete cases such as
``Δ_{A↔B→C}`` (Theorem 4.10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .dichotomy import osr_succeeds
from .exact import ExactSearchLimit, exact_u_repair
from .fd import FDSet
from .srepair import opt_s_repair
from .table import Table, TupleId
from .violations import satisfies

__all__ = [
    "URepairResult",
    "URepairApproxResult",
    "u_repair",
    "optimal_u_repair",
    "UnknownURepairComplexity",
]


@dataclass(frozen=True)
class URepairResult:
    """Outcome of a U-repair computation.

    ``ratio_bound`` bounds ``dist_upd(update)/dist_upd(optimal)``; it is
    1.0 when ``optimal``.  ``method`` records the per-component techniques
    applied.  Conflict-decomposed computations additionally record the
    per-component method mix (``method_counts``) and the component count;
    both are ``None`` on global computations.
    """

    update: Table
    distance: float
    optimal: bool
    ratio_bound: float
    method: str
    method_counts: Optional[Mapping[str, int]] = None
    component_count: Optional[int] = None


# Alias used by repro.core.approx to avoid duplicating the dataclass.
URepairApproxResult = URepairResult


class UnknownURepairComplexity(Exception):
    """Raised by :func:`optimal_u_repair` when no optimality-preserving
    technique applies and exhaustive search is infeasible."""


def _is_two_cycle(fds: FDSet) -> bool:
    """True iff Δ is exactly ``{A → B, B → A}`` for single attributes."""
    if len(fds) != 2:
        return False
    fd1, fd2 = fds.fds
    return (
        len(fd1.lhs) == 1
        and len(fd1.rhs) == 1
        and fd1.lhs == fd2.rhs
        and fd1.rhs == fd2.lhs
        and fd1.lhs != fd1.rhs
    )


def _two_cycle_updates(
    table: Table, fds: FDSet
) -> Dict[Tuple[TupleId, str], object]:
    """Proposition 4.9's construction for ``Δ = {A→B, B→A}``.

    Compute an optimal S-repair (the FD set passes ``OSRSucceeds`` via an
    lhs marriage).  Every deleted tuple t conflicts with some kept tuple s
    — otherwise t could be added, contradicting optimality — i.e. they
    agree on exactly one of A, B; copying the other attribute from s makes
    t a duplicate of s, at Hamming cost 1.  Hence
    ``dist_upd = dist_sub(S*)``, which is optimal by Corollary 4.5.
    """
    fd1, _fd2 = fds.fds
    (a,) = tuple(fd1.lhs)
    (b,) = tuple(fd1.rhs)
    s_star = opt_s_repair(fds, table)
    kept = list(s_star.ids())
    kept_set = set(kept)
    updates: Dict[Tuple[TupleId, str], object] = {}
    for tid in table.ids():
        if tid in kept_set:
            continue
        for sid in kept:
            if table.value(sid, a) == table.value(tid, a):
                updates[(tid, b)] = table.value(sid, b)
                break
            if table.value(sid, b) == table.value(tid, b):
                updates[(tid, a)] = table.value(sid, a)
                break
        else:
            raise AssertionError(
                "optimal S-repair is maximal; every deleted tuple must "
                "conflict with a kept tuple"
            )
    return updates


@dataclass
class _ComponentOutcome:
    updates: Dict[Tuple[TupleId, str], object]
    optimal: bool
    ratio: float
    methods: List[str]


def _component_u_repair(
    table: Table,
    fds: FDSet,
    allow_exact: bool,
    exact_budget: int,
) -> _ComponentOutcome:
    """Solve one attribute-disjoint component of Δ."""
    from .approx import (  # local import: approx depends on this module
        approx_s_repair,
        consensus_majority_update,
        u_repair_from_s_repair,
    )

    consensus = fds.consensus_attributes()
    if consensus:
        # Theorem 4.3: repair cl_Δ(∅) by weighted majority (optimal,
        # Prop. B.2), then solve Δ − cl_Δ(∅), which is consensus-free and
        # attribute-disjoint from the majority updates.
        outcome = _ComponentOutcome(
            updates=dict(consensus_majority_update(table, consensus)),
            optimal=True,
            ratio=1.0,
            methods=[f"consensus majority on {{{' '.join(sorted(consensus))}}}"],
        )
        rest = fds.minus(consensus).without_trivial()
        for sub in rest.attribute_disjoint_components():
            sub_outcome = _component_u_repair(table, sub, allow_exact, exact_budget)
            outcome.updates.update(sub_outcome.updates)
            outcome.optimal = outcome.optimal and sub_outcome.optimal
            outcome.ratio = max(outcome.ratio, sub_outcome.ratio)
            outcome.methods.extend(sub_outcome.methods)
        return outcome

    if fds.is_trivial:
        return _ComponentOutcome({}, True, 1.0, ["trivial"])

    if fds.common_lhs() and osr_succeeds(fds):
        # Corollary 4.6: mlc = 1, so Proposition 4.4(2) attains the
        # optimal S-repair distance, which lower-bounds the optimal
        # U-repair distance (Corollary 4.5).
        attr = min(sorted(fds.common_lhs()))
        s_star = opt_s_repair(fds, table)
        update = u_repair_from_s_repair(table, fds, s_star, frozenset((attr,)))
        return _ComponentOutcome(
            updates={cell: update.value(*cell) for cell in update.changed_cells(table)},
            optimal=True,
            ratio=1.0,
            methods=[f"common lhs ({attr}) via OptSRepair (Cor 4.6)"],
        )

    if _is_two_cycle(fds):
        return _ComponentOutcome(
            updates=_two_cycle_updates(table, fds),
            optimal=True,
            ratio=1.0,
            methods=["two-cycle {A→B, B→A} (Prop 4.9)"],
        )

    if allow_exact:
        # Exhaustive search for small instances, seeded with the
        # approximation as an upper bound for pruning.
        approx = _approx_component_update(table, fds)
        try:
            exact = exact_u_repair(
                table,
                fds,
                upper_bound=table.dist_upd(approx.update) + 1e-9,
                cell_budget=exact_budget,
            )
            return _ComponentOutcome(
                updates={
                    cell: exact.value(*cell) for cell in exact.changed_cells(table)
                },
                optimal=True,
                ratio=1.0,
                methods=["exact search"],
            )
        except ExactSearchLimit:
            pass
        return _ComponentOutcome(
            updates={
                cell: approx.update.value(*cell)
                for cell in approx.update.changed_cells(table)
            },
            optimal=False,
            ratio=approx.ratio_bound,
            methods=[f"2·mlc approximation (ratio ≤ {approx.ratio_bound:g})"],
        )

    approx = _approx_component_update(table, fds)
    return _ComponentOutcome(
        updates={
            cell: approx.update.value(*cell)
            for cell in approx.update.changed_cells(table)
        },
        optimal=False,
        ratio=approx.ratio_bound,
        methods=[f"2·mlc approximation (ratio ≤ {approx.ratio_bound:g})"],
    )


def _approx_component_update(table: Table, fds: FDSet) -> URepairResult:
    """Theorem 4.12's construction restricted to one consensus-free
    component."""
    from .approx import approx_s_repair, u_repair_from_s_repair

    cover = fds.minimum_lhs_cover()
    s_result = approx_s_repair(table, fds)
    update = u_repair_from_s_repair(table, fds, s_result.repair, cover)
    return URepairResult(
        update=update,
        distance=table.dist_upd(update),
        optimal=False,
        ratio_bound=2.0 * len(cover),
        method="2·mlc",
    )


def u_repair(
    table: Table,
    fds: FDSet,
    allow_exact_search: bool = True,
    exact_budget: int = 50_000,
    index=None,
) -> URepairResult:
    """Best-effort U-repair: optimal where the paper proves tractability
    (or exhaustive search fits the budget), bounded approximation
    otherwise.

    The returned :class:`URepairResult` states exactly which guarantee was
    achieved, per component.  :func:`repro.pipeline.clean` runs it per
    conflict component of the instance — orthogonal to (and on top of)
    the attribute-disjoint decomposition of Δ this dispatcher always
    applies — with a global re-check and a fall back to this global
    path.

    A consistent table short-circuits to the zero-update result without
    touching the per-component machinery — read off the prebuilt
    :class:`~repro.core.conflict_index.ConflictIndex` when one is passed
    (or cached on the table), detected by streaming otherwise, so the
    reported guarantee never depends on whether an index was supplied.
    The per-component S-repair subcalls share the table's per-FD-set
    index cache either way.
    """
    normalised = fds.with_singleton_rhs().without_trivial()
    if index is not None:
        index.ensure_for(fds, table)
        consistent = index.is_consistent()
    else:
        consistent = satisfies(table, fds)
    if consistent:
        return URepairResult(
            update=table,
            distance=0.0,
            optimal=True,
            ratio_bound=1.0,
            method="already consistent",
        )
    updates: Dict[Tuple[TupleId, str], object] = {}
    optimal = True
    ratio = 1.0
    methods: List[str] = []
    for component in normalised.attribute_disjoint_components():
        outcome = _component_u_repair(
            table, component, allow_exact_search, exact_budget
        )
        updates.update(outcome.updates)
        optimal = optimal and outcome.optimal
        ratio = max(ratio, outcome.ratio)
        methods.extend(outcome.methods)
    update = table.with_updates(updates)
    if not satisfies(update, normalised):
        raise AssertionError("u_repair produced an inconsistent update")
    return URepairResult(
        update=update,
        distance=table.dist_upd(update),
        optimal=optimal,
        ratio_bound=1.0 if optimal else ratio,
        method="; ".join(methods) if methods else "trivial",
    )


def optimal_u_repair(
    table: Table,
    fds: FDSet,
    exact_budget: int = 500_000,
    index=None,
) -> URepairResult:
    """A provably optimal U-repair, or :class:`UnknownURepairComplexity`.

    Succeeds on the paper's tractable cases — attribute-disjoint unions of
    consensus FDs, common-lhs FD sets passing ``OSRSucceeds`` (hence all
    chain FD sets, Corollary 4.8), and ``{A→B, B→A}`` — and on any
    instance small enough for exhaustive search.  The conflict-decomposed
    ``clean(strategy="updates", guarantee="optimal")`` extends the last
    case: the budget applies per component, so a large table whose hard
    conflicts form small pockets is still solved optimally.
    """
    return _require_optimal(
        u_repair(
            table, fds, allow_exact_search=True, exact_budget=exact_budget,
            index=index,
        ),
        fds,
    )


def _require_optimal(result: URepairResult, fds: FDSet) -> URepairResult:
    """*result*, or :class:`UnknownURepairComplexity` when it is not
    provably optimal — the contract of :func:`optimal_u_repair`."""
    if not result.optimal:
        raise UnknownURepairComplexity(
            f"no optimality-preserving technique applies to {fds} and the "
            f"instance exceeds the exact-search budget; "
            f"best known ratio bound is {result.ratio_bound:g}"
        )
    return result
