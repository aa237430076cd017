"""Algorithm 1 of the paper: ``OptSRepair`` and its three subroutines.

``OptSRepair(Δ, T)`` computes an optimal S-repair (minimum-weight set of
tuple deletions) whenever Δ can be fully simplified by three rules:

* **common lhs** (Subroutine 1, ``CommonLHSRep``): if some attribute A
  appears in the lhs of every FD, partition T by A, solve each block under
  ``Δ − A``, and return the union of the block repairs.
* **consensus** (Subroutine 2, ``ConsensusRep``): if Δ contains ``∅ → A``,
  partition T by A, solve each block under ``Δ − A``, and keep only the
  block repair of maximum weight.
* **lhs marriage** (Subroutine 3, ``MarriageRep``): if two lhs X1, X2 have
  equal closures and every lhs contains one of them, solve each
  ``(X1, X2)``-value block under ``Δ − X1X2`` and combine blocks along a
  maximum-weight matching of the bipartite graph between X1-values and
  X2-values.

If none applies to a nontrivial Δ, the algorithm *fails*; Theorem 3.4 shows
the problem is then APX-complete (see :mod:`repro.core.dichotomy`).

The implementation is faithful to the paper, handles weighted tables and
duplicate tuples, and is polynomial even in combined complexity
(Theorem 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..graphs.bipartite import max_weight_bipartite_matching
from .fd import FD, AttrSet, FDSet
from .table import Row, Table

__all__ = [
    "DichotomyFailure",
    "opt_s_repair",
    "optimal_s_repair",
    "SRepairResult",
]


class DichotomyFailure(Exception):
    """Raised when ``OptSRepair`` reaches a nontrivial, unsimplifiable Δ.

    By Theorem 3.4 computing an optimal S-repair for such Δ is
    APX-complete; callers can fall back to
    :func:`repro.core.exact.exact_s_repair` (exponential) or
    :func:`repro.core.approx.approx_s_repair` (2-approximation).
    """

    def __init__(self, fds: FDSet):
        self.fds = fds
        super().__init__(
            f"OptSRepair fails: no simplification applies to {fds}"
        )


@dataclass(frozen=True)
class SRepairResult:
    """Outcome of an S-repair computation.

    ``ratio_bound`` is a proven upper bound on
    ``dist_sub(repair)/dist_sub(optimal)`` — 1.0 when the repair is optimal.
    Decomposed computations additionally record the per-component method
    mix (``method_counts``, portfolio method → number of components) and
    the component count; both are ``None`` on global computations.
    """

    repair: Table
    distance: float
    optimal: bool
    ratio_bound: float
    method: str
    method_counts: Optional[Mapping[str, int]] = None
    component_count: Optional[int] = None


def opt_s_repair(fds: FDSet, table: Table) -> Table:
    """``OptSRepair(Δ, T)`` — Algorithm 1.

    Returns an optimal S-repair of *table* under *fds*, or raises
    :class:`DichotomyFailure` when the FD set is on the hard side of the
    dichotomy.  Following Section 3 we first normalise Δ so that every FD
    has a single attribute on its right-hand side (this preserves
    equivalence).
    """
    return _opt_s_repair(fds.with_singleton_rhs(), table)


def _opt_s_repair(fds: FDSet, table: Table) -> Table:
    fds = fds.without_trivial()
    if fds.is_trivial:  # successful termination (line 1–2)
        return table
    common = fds.common_lhs()
    if common:  # line 4–5
        return _common_lhs_rep(fds, table, min(sorted(common)))
    consensus = fds.consensus_fds()
    if consensus:  # line 6–7
        return _consensus_rep(fds, table, consensus[0])
    marriages = fds.lhs_marriages()
    if marriages:  # line 8–9
        return _marriage_rep(fds, table, marriages[0])
    raise DichotomyFailure(fds)  # line 10


def _common_lhs_rep(fds: FDSet, table: Table, attr: str) -> Table:
    """Subroutine 1 (``CommonLHSRep``): group by a common-lhs attribute.

    Tuples in different A-blocks disagree on A and hence on the lhs of
    every FD, so blocks never conflict and the union of per-block optimal
    repairs is optimal (Lemma A.1).
    """
    reduced = fds.minus((attr,))
    result: Optional[Table] = None
    for ids in table.group_by((attr,)).values():
        block_repair = _opt_s_repair(reduced, table.subset(ids))
        result = block_repair if result is None else result.union(block_repair)
    return result if result is not None else table


def _consensus_rep(fds: FDSet, table: Table, consensus_fd: FD) -> Table:
    """Subroutine 2 (``ConsensusRep``): keep the heaviest A-block repair.

    Under ``∅ → A`` every consistent subset lives inside a single A-block,
    so we repair each block under ``Δ − A`` and return the block repair of
    maximum total weight (Lemma A.2).
    """
    (attr,) = tuple(consensus_fd.rhs)  # singleton-rhs normal form
    reduced = fds.minus((attr,))
    best: Optional[Table] = None
    best_weight = float("-inf")
    for ids in table.group_by((attr,)).values():
        block_repair = _opt_s_repair(reduced, table.subset(ids))
        weight = block_repair.total_weight()
        if weight > best_weight:
            best = block_repair
            best_weight = weight
    if best is None:  # empty table
        return table
    return best


def _marriage_rep(
    fds: FDSet, table: Table, marriage: Tuple[AttrSet, AttrSet]
) -> Table:
    """Subroutine 3 (``MarriageRep``): maximum-weight bipartite matching.

    With an lhs marriage ``(X1, X2)`` (and no common lhs), any consistent
    subset pairs each X1-value with at most one X2-value and vice versa.
    We compute the optimal repair of every co-occurring value block under
    ``Δ − X1X2``, weight the bipartite edge ``(a1, a2)`` by that repair's
    weight, take a maximum-weight matching, and return the union of the
    matched block repairs (Lemma A.3).
    """
    x1, x2 = marriage
    reduced = fds.minus(x1 | x2)
    combined = sorted(x1 | x2)

    # Group tuples by their (X1, X2) value pair.
    block_repairs: Dict[Tuple[Row, Row], Table] = {}
    edge_weights: Dict[Tuple[Row, Row], float] = {}
    for ids in table.group_by(combined).values():
        sample = ids[0]
        a1 = table.project(sample, x1)
        a2 = table.project(sample, x2)
        repair = _opt_s_repair(reduced, table.subset(ids))
        block_repairs[(a1, a2)] = repair
        edge_weights[(a1, a2)] = repair.total_weight()

    left = table.distinct_projection(x1)
    right = table.distinct_projection(x2)
    matching = max_weight_bipartite_matching(left, right, edge_weights)

    result: Optional[Table] = None
    for pair in matching:
        repair = block_repairs[pair]
        result = repair if result is None else result.union(repair)
    if result is None:  # empty table or empty matching
        return table.subset(())
    return result


def optimal_s_repair(
    table: Table,
    fds: FDSet,
    method: str = "auto",
    index=None,
    exact_budget_s: Optional[float] = None,
) -> SRepairResult:
    """High-level optimal S-repair with an automatic method choice.

    * ``method="dichotomy"`` — run ``OptSRepair`` (raises
      :class:`DichotomyFailure` on the hard side).
    * ``method="exact"`` — exact minimum-weight vertex cover of the
      conflict graph (works for every Δ, exponential worst case).
    * ``method="auto"`` — dichotomy when ``OSRSucceeds(Δ)``, exact
      otherwise.

    A prebuilt :class:`~repro.core.conflict_index.ConflictIndex` may be
    passed to share violation detection across entry points (the exact
    path consumes it; the dichotomy path never builds a conflict graph).
    Per-component solving is :func:`repro.pipeline.clean`'s job
    (``guarantee="optimal"``).

    The result is always a true optimal S-repair (``ratio_bound == 1``).
    When *exact_budget_s* is set and the exact vertex-cover solve
    outruns it, :class:`~repro.graphs.vertex_cover.ExactBudgetExceeded`
    propagates.  The dichotomy path is polynomial and ignores the budget.
    """
    from .dichotomy import osr_succeeds  # local import to avoid a cycle
    from .exact import exact_s_repair

    if method not in ("auto", "dichotomy", "exact"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dichotomy" or (method == "auto" and osr_succeeds(fds)):
        repair = opt_s_repair(fds, table)
        used = "OptSRepair"
    else:
        repair = exact_s_repair(table, fds, index=index,
                                exact_budget_s=exact_budget_s)
        used = "exact-vertex-cover"
    return SRepairResult(
        repair=repair,
        distance=table.dist_sub(repair),
        optimal=True,
        ratio_bound=1.0,
        method=used,
    )
