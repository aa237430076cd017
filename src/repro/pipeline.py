"""High-level cleaning pipeline: detect → estimate → repair → report.

The paper's introduction motivates optimal repairs twice: (1) fully
automated cleaning, where the optimal repair *is* the cleaned instance,
and (2) human-in-the-loop cleaning, where the optimal repair *cost*
serves as an educated estimate of how dirty the database is and how much
effort completion will take.  This module packages both workflows behind
one call.

:func:`assess` produces a :class:`DirtinessReport` without committing to
a repair: conflict statistics plus a *bracket* on the optimal repair
cost — an admissible lower bound (greedy matching over the conflict
graph: tuple-disjoint conflicting pairs each force one deletion) and the
2-approximation upper bound of Proposition 3.3, so the true optimum is
provably inside ``[lower, upper]`` with ``upper ≤ 2·optimum``.

:func:`clean` runs the full pipeline and returns the repaired table with
the guarantee achieved, choosing deletions or updates and exact or
approximate computation according to the requested policy and the
dichotomy verdict for Δ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Tuple

from . import obs as _obs
from .core.approx import approx_s_repair
from .core.conflict_index import ConflictIndex
from .graphs.vertex_cover import ExactBudgetExceeded
from .core.decompose import (
    ComponentPlan,
    SolvePolicy,
    decompose,
    polynomial_bracket,
    resolve_plan_defaults,
)
from .core.dichotomy import DichotomyResult, classify
from .core.fd import FDSet
from .core.srepair import optimal_s_repair
from .core.table import FreshValue, Table, TupleId
from .core.urepair import URepairResult, u_repair

__all__ = [
    "ComponentAssessment",
    "DirtinessReport",
    "CleaningResult",
    "assess",
    "clean",
]


@dataclass(frozen=True)
class ComponentAssessment:
    """Per-component detail row of a :func:`assess` run (``detailed=True``).

    ``method`` is the *planned* bracket computation (``"exact"`` — branch
    & bound attempted — or ``"approx"``), ``bracket_source`` where the
    reported lower bound actually came from: ``"exact"`` when the
    component optimum is certified (tight polynomial bracket or a
    completed exact solve), ``"lp"`` when the half-integral LP relaxation
    beat the matching bound, ``"matching"`` otherwise.
    ``difficulty``/``predicted_s`` are the scheduler's cost-model
    outputs (``None`` when no global budget was set — the legacy path
    computes no features).
    """

    ordinal: int
    size: int
    edges: int
    method: str
    difficulty: Optional[float]
    predicted_s: Optional[float]
    downgraded: bool
    lower_bound: float
    upper_bound: float
    bracket_source: str


@dataclass(frozen=True)
class DirtinessReport:
    """Conflict statistics and a provable bracket on the repair cost.

    ``lower_bound ≤ optimal S-repair distance ≤ upper_bound`` always
    holds, and ``upper_bound ≤ 2 × optimum`` (Proposition 3.3).  A table
    is consistent iff ``conflict_count == 0`` iff the bracket is [0, 0].

    On the (default) decomposed assessment the bracket is the *sum of
    per-component brackets*: components at or below
    :data:`~repro.core.decompose.EXACT_COMPONENT_THRESHOLD` tuples
    contribute their exact optimal deletion cost (lower = upper), larger
    ones their matching/Bar-Yehuda–Even bracket.  Per-component matching
    and BYE sums coincide with the global bounds (both computations are
    component-local), so the decomposed bracket is never looser and is
    strictly tighter whenever any component was solved exactly —
    ``exact_components`` counts those.
    """

    total_tuples: int
    total_weight: float
    conflict_count: int
    conflicting_tuples: int
    lower_bound: float
    upper_bound: float
    complexity: str
    dichotomy: DichotomyResult
    component_count: int = 0
    largest_component: int = 0
    exact_components: int = 0
    component_details: Optional[tuple] = None

    @property
    def consistent(self) -> bool:
        return self.conflict_count == 0

    @property
    def dirtiness_fraction(self) -> float:
        """Upper-bound estimate of the weight fraction needing change."""
        if self.total_weight == 0:
            return 0.0
        return self.upper_bound / self.total_weight

    @property
    def bracket_is_tight(self) -> bool:
        """True iff lower and upper bound coincide — the polynomial
        assessment then *certifies* the optimal repair cost without
        solving the (possibly APX-complete) problem exactly.  Happens
        surprisingly often on real dirtiness patterns, where conflicts
        form disjoint clusters."""
        return self.lower_bound == self.upper_bound

    def summary(self) -> str:
        lines = [
            f"tuples: {self.total_tuples} (total weight {self.total_weight:g})",
            f"conflicting pairs: {self.conflict_count} "
            f"across {self.conflicting_tuples} tuples",
            f"conflict components: {self.component_count}"
            + (
                f" (largest {self.largest_component} tuples, "
                f"{self.exact_components} bracketed exactly)"
                if self.component_count
                else ""
            ),
            f"optimal deletion cost bracket: "
            f"[{self.lower_bound:g}, {self.upper_bound:g}]"
            + (" (tight)" if self.bracket_is_tight and self.conflict_count else ""),
            f"estimated dirtiness: ≤ {100 * self.dirtiness_fraction:.1f}% "
            "of total weight",
            f"optimal S-repair complexity for Δ: {self.complexity}",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class CleaningResult:
    """Outcome of :func:`clean`: the repaired table plus provenance.

    ``ratio_bound`` is *instance-specific* on the decomposed path: 1.0
    whenever every component was solved exactly — even for an FD set
    that is APX-complete in general — and the proven per-component
    maximum otherwise.  ``method_counts`` records the portfolio mix
    (method → number of components it handled) and ``component_count``
    how many conflict components the instance decomposed into (``None``
    on the global path).  On the decomposed S-repair path ``cleaned`` is
    built on its first read and ``distance`` is the exact ``math.fsum``
    of the deleted weights (see :func:`repro.exec.assemble_s_result`);
    on every deletions path ``distance == table.dist_sub(cleaned)``
    exactly.
    """

    cleaned: Table
    report: DirtinessReport
    strategy: str
    distance: float
    optimal: bool
    ratio_bound: float
    method: str
    method_counts: Optional[Mapping[str, int]] = None
    component_count: Optional[int] = None


def assess(
    table: Table,
    fds: FDSet,
    index: Optional[ConflictIndex] = None,
    decomposed: bool = True,
    exact_threshold: Optional[int] = None,
    exact_budget_s: Optional[float] = None,
    unit_cost_s: Optional[float] = None,
    detailed: bool = False,
    recorder=None,
) -> DirtinessReport:
    """Detect conflicts and bracket the optimal repair cost (no repair).

    The bracket is the sum of per-component brackets over the conflict
    graph's connected components.  Which components are bracketed
    **exactly** is decided by the difficulty scheduler
    (:meth:`.Decomposition.plan_schedule`): without a global
    budget, every component of at most *exact_threshold* tuples (default
    :data:`~repro.core.decompose.EXACT_COMPONENT_THRESHOLD`) gets a
    branch & bound attempt — empirically instantaneous at that size;
    with *exact_budget_s* set, components are ranked by predicted
    difficulty and granted exact attempts easiest-first while the
    predicted spend fits the **global** budget, so the same wall-clock
    buys the most certified components.
    A component left approximate contributes its matching lower bound —
    tightened to the half-integral LP relaxation bound when that is
    larger (strictly tighter on non-bipartite components) — and the
    Bar-Yehuda–Even upper bound (Proposition 3.3).  The result is never
    looser than the global bracket (all bounds are component-local
    computations) and strictly tighter whenever any component is
    bracketed exactly.  With ``decomposed=False`` the historical single
    global bracket is computed, which is also the fallback guaranteeing
    polynomial time on adversarial components.  An exact bracket whose
    branch & bound outruns its wall-clock slice keeps its polynomial
    bounds instead (and does not count as exact).  ``detailed=True``
    additionally fills ``component_details`` with one
    :class:`ComponentAssessment` per component.  All readings are
    served by the table's cached :class:`ConflictIndex` — or the
    prebuilt one passed in — so assessment costs one bucketing pass,
    shared with any subsequent repair call on the same table.

    An enabled *recorder* (:mod:`repro.obs`) receives a
    ``pipeline.assess`` root span with ``phase.index`` /
    ``phase.decompose`` / ``phase.plan`` / ``phase.solve`` children (the
    solve phase covers the bracket loop — exact attempts and LP
    tightening).  The default no-op recorder costs a handful of empty
    context managers per call.
    """
    policy = resolve_plan_defaults(
        exact_threshold, None, exact_budget_s, unit_cost_s
    )
    return _assess(table, fds, index, decomposed, policy, detailed,
                   _obs.resolve(recorder))


def _assess(
    table: Table,
    fds: FDSet,
    index: Optional[ConflictIndex],
    decomposed: bool,
    policy: SolvePolicy,
    detailed: bool,
    rec,
) -> DirtinessReport:
    """:func:`assess` under a resolved *policy*."""
    with rec.span("pipeline.assess", decomposed=decomposed):
        with rec.span("phase.index"):
            if index is None:
                index = table.conflict_index(fds)
            else:
                index.ensure_for(fds, table)

        verdict = classify(fds)
        component_count = 0
        largest = 0
        exact_components = 0
        details = [] if detailed else None
        if decomposed and index.num_edges:
            lower, upper, component_count, largest, exact_components = (
                _assess_decomposed_bracket(
                    table, fds, index, policy, details, rec
                )
            )
        else:
            lower, upper = polynomial_bracket(index, table)
            if index.num_edges:
                components = index.components()
                component_count = len(components)
                largest = max(len(c) for c in components)

        return DirtinessReport(
            total_tuples=len(table),
            total_weight=table.total_weight(),
            conflict_count=index.num_edges,
            conflicting_tuples=len(index.conflicting_tuples()),
            lower_bound=lower,
            upper_bound=upper,
            complexity=verdict.complexity,
            dichotomy=verdict,
            component_count=component_count,
            largest_component=largest,
            exact_components=exact_components,
            component_details=tuple(details) if details is not None else None,
        )


def _assess_decomposed_bracket(
    table: Table,
    fds: FDSet,
    index: ConflictIndex,
    policy: SolvePolicy,
    details,
    rec,
):
    """The decomposed bracket loop of :func:`assess`: decompose, plan,
    then bracket each component (exact attempt or matching/LP/BYE),
    filling *details* rows in place when requested.  Returns
    ``(lower, upper, component_count, largest, exact_components)``."""
    from .core.exact import ExactBudgetExceeded, exact_cover_of_index

    with rec.span("phase.decompose"):
        decomp = decompose(table, fds, index)
    # Assessment brackets every component via vertex cover regardless of
    # the dichotomy, so the schedule is planned on the hard side
    # (tractable=False: exact-vs-approx, never dichotomy).
    with rec.span("phase.plan"):
        plans = decomp.plan_schedule(
            False, replace(policy, guarantee="best")
        )
    threshold = policy.threshold
    exact_components = 0
    lower = upper = 0.0
    with rec.span("phase.solve"):
        for ordinal, (component, plan) in enumerate(
            zip(decomp.components, plans)
        ):
            # The cheap polynomial bracket first: when it is already
            # tight the component optimum is certified and the branch &
            # bound has nothing to add.  The global scheduler already
            # bracketed eligible components as a difficulty feature.
            if plan.features is not None:
                c_lower, c_upper = plan.features.matching, plan.features.upper
            else:
                c_lower, c_upper = polynomial_bracket(
                    component.index, component.table
                )
            source = "matching"
            if c_lower == c_upper:
                exact_components += 1
                source = "exact"
            elif plan.method == "exact":
                try:
                    cover = exact_cover_of_index(
                        component.index, node_limit=policy.node_limit,
                        budget_s=plan.budget_s,
                    )
                except ExactBudgetExceeded:
                    pass  # budget hit: the polynomial bracket stands
                else:
                    c_lower = c_upper = component.table.total_weight(cover)
                    exact_components += 1
                    source = "exact"
            if (
                source == "matching"
                and plan.method == "approx"
                and (plan.downgraded or component.size > threshold)
            ):
                lp = component.index.lp_lower_bound()
                if lp is not None and lp > c_lower:
                    c_lower = lp
                    source = "lp"
            lower += c_lower
            upper += c_upper
            if details is not None:
                details.append(ComponentAssessment(
                    ordinal=ordinal,
                    size=component.size,
                    edges=component.index.num_edges,
                    method=plan.method,
                    difficulty=plan.difficulty,
                    predicted_s=plan.predicted_s,
                    downgraded=plan.downgraded,
                    lower_bound=c_lower,
                    upper_bound=c_upper,
                    bracket_source=source,
                ))
    return (
        lower,
        upper,
        decomp.component_count,
        decomp.largest_component,
        exact_components,
    )


@dataclass
class _ComponentSolve:
    """One component's solved repair: the kept ids, the method that
    actually ran (differs from the planned one exactly when an exact
    solve fell back to ``"approx"`` under its wall-clock budget), and
    what is derived from them on first use and memoised here — the
    report lower bounds :func:`_lower_bound` reads (the matching bound
    and the half-integral LP bound) and the deletions :meth:`deletions`
    reads (the deleted ids in component order and their weight).  Every
    field is a pure function of the component's content and plan, which
    is what lets a streaming session cache the whole record: serving it
    is indistinguishable from re-solving, and a cached budget fallback
    stays sticky while the component is unchanged.  Records pickled
    before a memo field existed load with it unset."""

    kept: Tuple[TupleId, ...]
    method: str
    lower_bound: Optional[float] = None
    lp_bound: Optional[float] = None
    deleted: Optional[Tuple[TupleId, ...]] = None
    deleted_weight: Optional[float] = None

    def deletions(self, component) -> Tuple[Tuple[TupleId, ...], float]:
        """The ids this repair deletes from *component*, in component
        order, and their weight, computed once.  The weight is the
        component's total minus the kept weight, the expression the
        report bracket has always summed."""
        if self.deleted is None:
            kept = set(self.kept)
            table = component.table
            # The weight first: a concurrent reader that finds the ids
            # set finds it set too.
            self.deleted_weight = (table.total_weight()
                                   - table.total_weight(self.kept))
            self.deleted = tuple(
                tid for tid in component.ids if tid not in kept
            )
        return self.deleted, self.deleted_weight


def _lower_bound(solve: _ComponentSolve, component, plan,
                 policy: SolvePolicy) -> float:
    """The report lower bound an approximated component contributes: its
    matching bound, tightened to the half-integral LP relaxation bound
    when the *plan* leaves the component approximate (too large for the
    threshold, or downgraded by the global scheduler) under a
    bound-seeking guarantee.  A component whose exact solve fell back at
    *run* time keeps the matching bound — the fallback is wall-clock
    dependent, and the bound must stay a pure function of the plan for
    serial/pool and session/clean byte-identity.  Both bounds are
    memoised on *solve*."""
    if solve.lower_bound is None:
        solve.lower_bound = component.index.matching_lower_bound()
    bound = solve.lower_bound
    if (
        policy.guarantee == "fast"
        or plan.method != "approx"
        or not (plan.downgraded or component.size > policy.threshold)
    ):
        return bound
    if solve.lp_bound is None:
        solve.lp_bound = component.index.lp_lower_bound()
    lp = solve.lp_bound
    return lp if lp is not None and lp > bound else bound


def _decomposed_outcome(
    decomp,
    verdict: DichotomyResult,
    plans,
    solves,
    policy: SolvePolicy,
) -> CleaningResult:
    """Assemble the :class:`CleaningResult` (report included) of a
    decomposed S-repair from its per-component :class:`_ComponentSolve`
    records.

    Shared by :func:`_clean_deletions_decomposed` and the streaming
    :class:`repro.session.RepairSession`: both feed per-component solves
    — freshly computed or cache-served — through the same assembly, so a
    session result is byte-identical to a from-scratch ``clean``.
    Exactly solved components contribute their solved cost to both ends
    of the bracket; approximated ones their :func:`_lower_bound` and, as
    upper bound, the deleted weight (the solver already ran BYE +
    maximalisation: that *is* the Proposition 3.3 bound).  Both come
    from each record's memo, so a cache-served record costs O(1) here;
    the repair itself is assembled by deleted ids
    (:func:`repro.exec.assemble_s_result`): its ``distance`` is an exact
    ``math.fsum`` and its ``cleaned`` table is built on first read.
    """
    from .exec import assemble_s_result

    table = decomp.table
    lower = upper = 0.0
    exact_components = 0
    for component, plan, solve in zip(decomp.components, plans, solves):
        _ids, deleted = solve.deletions(component)
        upper += deleted
        if solve.method in ("dichotomy", "exact"):
            lower += deleted
            exact_components += 1
        else:
            lower += _lower_bound(solve, component, plan, policy)
    report = DirtinessReport(
        total_tuples=len(table),
        total_weight=table.total_weight(),
        conflict_count=decomp.index.num_edges,
        conflicting_tuples=decomp.conflicting_tuple_count(),
        lower_bound=lower,
        upper_bound=upper,
        complexity=verdict.complexity,
        dichotomy=verdict,
        component_count=decomp.component_count,
        largest_component=decomp.largest_component,
        exact_components=exact_components,
    )
    result = assemble_s_result(decomp, solves)
    return _cleaning_result(result.repair, result, report, "deletions")


def _require_planned(plans, positions, methods) -> None:
    """``guarantee="optimal"``: raise
    :class:`~repro.graphs.vertex_cover.ExactBudgetExceeded` when a solve
    (of the components at *positions*) came back with another method
    than planned — an exact solve that outran its wall-clock slice, or
    one the worker pool degraded after it kept killing workers.  Either
    way the answer is not provably optimal, so the call fails before
    anything is merged or cached."""
    for i, method in zip(positions, methods):
        if method != plans[i].method:
            budget = plans[i].budget_s
            raise ExactBudgetExceeded(
                f"guarantee 'optimal': the exact solve of conflict "
                f"component {i} "
                + (f"outran its {budget:g} s budget" if budget is not None
                   else "did not complete")
            )


def _cleaning_result(cleaned: Table, result, report, strategy: str
                     ) -> CleaningResult:
    """Wrap an S- or U-repair result and its report."""
    return CleaningResult(
        cleaned=cleaned,
        report=report,
        strategy=strategy,
        distance=result.distance,
        optimal=result.optimal,
        ratio_bound=result.ratio_bound,
        method=result.method,
        method_counts=result.method_counts,
        component_count=result.component_count,
    )


def _clean_deletions_decomposed(
    table: Table,
    fds: FDSet,
    index: ConflictIndex,
    policy: SolvePolicy,
    rec,
    executor=None,
) -> CleaningResult:
    """The decomposed S-repair pipeline: decompose once, schedule the
    portfolio (:meth:`.Decomposition.plan_schedule` — difficulty-
    ranked under a global *exact_budget_s*, the historical size rule
    otherwise), solve each component by its plan, and derive the
    dirtiness report from the same per-component solutions
    (:func:`_decomposed_outcome`).  The *effective* methods come back
    from the solve — an exact component that outran its wall-clock slice
    re-solved approximately — so report and label describe what ran.  An
    enabled *recorder* times the decompose / plan / solve / merge phases
    and receives one ``solve`` record per component (via
    :func:`repro.exec.solve_components`)."""
    from .exec import solve_components

    verdict = classify(fds)
    with rec.span("phase.decompose"):
        decomp = decompose(table, fds, index)
    with rec.span("phase.plan"):
        plans = decomp.plan_schedule(verdict.tractable, policy)
    with rec.span("phase.solve"):
        kept_lists, methods = solve_components(
            decomp, plans, policy, recorder=rec, executor=executor,
        )
    if policy.guarantee == "optimal":
        _require_planned(plans, range(len(plans)), methods)
    with rec.span("phase.merge"):
        return _decomposed_outcome(
            decomp, verdict, plans,
            [_ComponentSolve(k, m) for k, m in zip(kept_lists, methods)],
            policy,
        )


def clean(
    table: Table,
    fds: FDSet,
    strategy: str = "deletions",
    guarantee: str = "best",
    index: Optional[ConflictIndex] = None,
    decomposed: bool = True,
    exact_threshold: Optional[int] = None,
    exact_budget_s: Optional[float] = None,
    unit_cost_s: Optional[float] = None,
    recorder=None,
    executor=None,
) -> CleaningResult:
    """Repair *table* end to end.

    Parameters
    ----------
    strategy:
        ``"deletions"`` (S-repair) or ``"updates"`` (U-repair).
    guarantee:
        * ``"best"`` — optimal when the dichotomy (or the component
          size) permits, bounded approximation otherwise;
        * ``"optimal"`` — insist on a provably optimal repair (may be
          exponential on the hard side; raises on infeasible U cases);
        * ``"fast"`` — polynomial approximation regardless of Δ.
    index:
        Optional prebuilt :class:`ConflictIndex` for ``(table, fds)``,
        e.g. when batch-repairing one table under several strategies.
        Built (and cached on the table) otherwise; assessment and the
        repair step share it either way.
    decomposed:
        Default ``True``: solve per conflict component, each component
        dispatched by the portfolio policy — ``OptSRepair`` where Δ is
        tractable, exact vertex cover on hard-Δ components of at most
        :data:`~repro.core.decompose.EXACT_COMPONENT_THRESHOLD` tuples,
        Bar-Yehuda–Even beyond — so ``guarantee="best"`` is exact
        wherever exactness is affordable *component-wise*, not merely
        table-wise, and ``ratio_bound`` is 1.0 whenever every component
        was solved exactly.  ``False`` restores the historical global
        path (one solver for the whole instance, exact-vs-approx decided
        by total table size).
    exact_threshold:
        Component-size boundary between exact and approximate solving on
        the APX-hard side of the dichotomy (default
        :data:`~repro.core.decompose.EXACT_COMPONENT_THRESHOLD`).  Raise
        it to buy tighter repairs with branch & bound time — up to
        :data:`~repro.core.kernel.MAX_BITMASK_VERTICES`, where the
        multi-word bitset solver still runs array-native — lower it to
        bound worst-case latency; on the global path it bounds the whole
        table size instead.
    exact_budget_s:
        **Global** exact-solve budget in wall-clock seconds (default:
        unlimited).  On the decomposed deletions path it drives the
        difficulty scheduler
        (:meth:`.Decomposition.plan_schedule`): components are
        ranked by predicted branch & bound difficulty, granted exact
        solves easiest-first while the *predicted* cumulative cost fits
        the budget, and the residual tail is planned approximate up
        front — so the *plan* is deterministic and identical on the
        serial and worker-pool paths (the budget buys certified
        components, not a race).  The result is deterministic only as
        far as every granted solve finishes inside its slice: each
        carries the unspent budget as a hard wall-clock ceiling, and one
        that outruns it is re-solved with the Bar-Yehuda–Even
        2-approximation, so a component near its slice may come out
        exact on one run and approximate on the next; the report/ratio
        bound describe the fallback honestly.  ``guarantee="optimal"``
        gives each exact solve the whole budget and raises
        :class:`~repro.graphs.vertex_cover.ExactBudgetExceeded` instead
        of falling back, on every path (serial, *executor*,
        ``decomposed=False``), true to "provably optimal or fail".  On
        the updates strategy the budget bounds the assessment bracket
        only: the U-repair solvers search update space, not vertex
        covers, and carry their own node-count budget (``exact_budget``
        in :mod:`repro.core.urepair`).
    unit_cost_s:
        Seconds one unit of predicted difficulty costs on this machine
        (default: the hand-calibrated
        :data:`~repro.core.decompose.DIFFICULTY_UNIT_COST_S`).  A
        ``fdrepair calibrate`` fit deployed here rescales the global
        budget's predicted spend without touching the difficulty
        *ranking*, so the plan stays deterministic.
    recorder:
        Optional :class:`repro.obs.Recorder`.  When enabled, the run is
        wrapped in a ``pipeline.clean`` span with per-phase children
        (index / decompose / plan / solve / merge) and per-component
        ``solve`` trace records; the default
        :data:`repro.obs.NULL_RECORDER` is a guaranteed no-op costing an
        attribute check on the hot paths.
    executor:
        Optional caller-built :class:`repro.exec.PersistentWorkerPool`
        that the decomposed paths (deletions and updates) solve their
        components on (see :func:`repro.exec.solve_components`); without
        one every solve runs in process.  A pool not yet running is
        started only when there are two components or more; ``clean``
        never stops it, so closing it is the caller's, and it carries
        its own per-solve deadline (``solve_timeout_s``) and recorder.
        Where the components are solved leaves no trace in the result:
        it equals the serial one field for field, method label
        included, and a pool that fails falls back to solving in
        process.
    """
    if strategy not in ("deletions", "updates"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rec = _obs.resolve(recorder)
    policy = resolve_plan_defaults(
        exact_threshold, None, exact_budget_s, unit_cost_s, guarantee
    )
    with rec.span("pipeline.clean", strategy=strategy, guarantee=guarantee):
        with rec.span("phase.index"):
            if index is None:
                index = table.conflict_index(fds)
            else:
                index.ensure_for(fds, table)

        if not decomposed:
            return _clean_global(table, fds, strategy, index, policy, rec)
        if strategy == "deletions":
            # One decomposition drives both the report and the repair:
            # the components each portfolio method solved *exactly*
            # contribute their solved cost to the bracket (lower =
            # upper), only the approximated ones are bracketed by
            # matching/BYE — so the report comes out at least as tight
            # as standalone assessment, without solving any component
            # twice.
            return _clean_deletions_decomposed(
                table, fds, index, policy, rec, executor,
            )
        return _clean_updates_decomposed(
            table, fds, index, policy, rec, executor,
        )


def _clean_global(
    table: Table,
    fds: FDSet,
    strategy: str,
    index: ConflictIndex,
    policy: SolvePolicy,
    rec,
) -> CleaningResult:
    """The ``decomposed=False`` tail of :func:`clean`: the global
    assessment, then one global solve under a ``phase.solve`` span."""
    report = _assess(table, fds, index, False, policy, False, rec)
    guarantee = policy.guarantee

    if strategy == "deletions":
        with rec.span("phase.solve"):
            if guarantee == "fast" or (
                guarantee == "best"
                and not report.dichotomy.tractable
                and len(table) > policy.threshold
            ):
                result = approx_s_repair(table, fds, index=index)
            else:
                try:
                    result = optimal_s_repair(
                        table, fds, index=index,
                        exact_budget_s=policy.exact_budget_s,
                    )
                except ExactBudgetExceeded:
                    if guarantee == "optimal":
                        # "provably optimal or fail": hitting the budget
                        # IS the failure mode the caller signed up for.
                        raise
                    result = approx_s_repair(table, fds, index=index)
        return _cleaning_result(result.repair, result, report, strategy)

    with rec.span("phase.solve"):
        if guarantee == "fast":
            from .core.approx import approx_u_repair

            u_result: URepairResult = approx_u_repair(table, fds, index=index)
        elif guarantee == "optimal":
            from .core.urepair import optimal_u_repair

            u_result = optimal_u_repair(table, fds, index=index)
        else:
            u_result = u_repair(table, fds, index=index)
    return _cleaning_result(u_result.update, u_result, report, strategy)


#: The U-repair portfolio method (:data:`repro.exec.U_METHODS`) each
#: guarantee solves components with: ``"fast"`` disables per-component
#: exhaustive search, keeping the whole path polynomial; ``"best"``
#: allows it within budget; ``"optimal"`` grants the larger budget.
_U_METHOD_BY_GUARANTEE = {
    "best": "u-best", "fast": "u-fast", "optimal": "u-optimal",
}


def _clean_updates_decomposed(
    table: Table,
    fds: FDSet,
    index: ConflictIndex,
    policy: SolvePolicy,
    rec,
    executor=None,
) -> CleaningResult:
    """The decomposed U-repair: the Section 4 dispatcher per conflict
    component (:func:`repro.exec.solve_components`), merged.

    Per-component optimal distances sum to at most the global optimum
    (the restriction of any consistent update to a component is a
    consistent update of its sub-table), so when every component reports
    ``optimal`` the merged update is optimal.  Updates that draw
    replacement values from the active domain can — rarely — collide
    across components (a changed cell coming to agree with a tuple of
    another component); the merge is therefore re-checked globally and
    falls back to the global dispatcher when a collision is detected,
    keeping the decomposed path unconditionally sound.
    ``guarantee="optimal"`` raises
    :class:`~repro.core.urepair.UnknownURepairComplexity` when the
    result is not provably optimal."""
    from .core.urepair import _require_optimal
    from .exec import solve_components

    report = _assess(table, fds, index, True, policy, False, rec)
    method = _U_METHOD_BY_GUARANTEE[policy.guarantee]
    with rec.span("phase.solve"):
        decomp = decompose(table, fds, index)
        outcomes, _methods = solve_components(
            decomp, [ComponentPlan(method)] * decomp.component_count,
            policy, recorder=rec, executor=executor,
        )
        result = _merge_u_components(decomp, method, outcomes)
    if policy.guarantee == "optimal":
        _require_optimal(result, fds)
    return _cleaning_result(result.update, result, report, "updates")


def _merge_u_components(decomp, method: str, outcomes) -> URepairResult:
    """Merge the relabelled updates of *decomp*'s components, solved
    with U *method* into *outcomes*, falling back to the global
    dispatcher on a cross-component collision."""
    from .core.violations import satisfies
    from .exec import U_METHODS, _method_mix

    table, fds = decomp.table, decomp.fds
    if not decomp.components:
        return URepairResult(
            update=table,
            distance=0.0,
            optimal=True,
            ratio_bound=1.0,
            method="already consistent",
            component_count=0,
        )
    update = decomp.merge_updates([
        _relabel_fresh(component.ordinal, cells)
        for component, (cells, _opt, _ratio, _m)
        in zip(decomp.components, outcomes)
    ])
    if not satisfies(update, fds.with_singleton_rhs().without_trivial()):
        allow_exact_search, exact_budget = U_METHODS[method]
        fallback = u_repair(
            table,
            fds,
            allow_exact_search=allow_exact_search,
            exact_budget=exact_budget,
            index=decomp.index,
        )
        return URepairResult(
            update=fallback.update,
            distance=fallback.distance,
            optimal=fallback.optimal,
            ratio_bound=fallback.ratio_bound,
            method=f"global fallback (cross-component collision): {fallback.method}",
            component_count=decomp.component_count,
        )
    optimal = all(opt for _c, opt, _r, _m in outcomes)
    ratio = max((r for _c, _opt, r, _m in outcomes), default=1.0)
    counts = _method_mix([m for _c, _opt, _r, m in outcomes])
    label = (
        f"decomposed[{decomp.component_count} components]: "
        + "; ".join(f"{m} ×{n}" if n > 1 else m for m, n in sorted(counts.items()))
    )
    return URepairResult(
        update=update,
        distance=table.dist_upd(update),
        optimal=optimal,
        ratio_bound=1.0 if optimal else ratio,
        method=label,
        method_counts=counts,
        component_count=decomp.component_count,
    )


def _relabel_fresh(ordinal: int, cells) -> dict:
    """One U component's ``((tid, attribute), value)`` changes as an
    update mapping, fresh labelled nulls relabelled ``⊥c<ordinal>.<k>``
    in changed-cell order: deterministic however the component was
    solved, and collision-free across components, so merged updates
    serialise identically however they were computed."""
    out = {}
    relabelled: dict = {}
    for cell, value in cells:
        if isinstance(value, FreshValue):
            fresh = relabelled.get(value)
            if fresh is None:
                fresh = FreshValue(f"⊥c{ordinal}.{len(relabelled)}")
                relabelled[value] = fresh
            value = fresh
        out[cell] = value
    return out
