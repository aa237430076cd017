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

from dataclasses import dataclass
from typing import Mapping, Optional

from . import obs as _obs
from .core.approx import approx_s_repair
from .core.conflict_index import ConflictIndex
from .graphs.vertex_cover import ExactBudgetExceeded
from .core.decompose import (
    EXACT_COMPONENT_THRESHOLD,
    decompose,
    polynomial_bracket,
    resolve_plan_defaults,
)
from .core.dichotomy import DichotomyResult, classify
from .core.fd import FDSet
from .core.srepair import SRepairResult, optimal_s_repair
from .core.table import Table
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
    on the global path).
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


def _bracket_component(index, table: Table) -> tuple:
    """Polynomial [matching, Bar-Yehuda–Even] bracket of one (sub-)index.

    Kept as an alias of :func:`repro.core.decompose.polynomial_bracket`
    (where the body moved when the bracket became a difficulty feature)
    for the streaming session's bracket refresh."""
    return polynomial_bracket(index, table)


def assess(
    table: Table,
    fds: FDSet,
    index: Optional[ConflictIndex] = None,
    decomposed: bool = True,
    exact_threshold: Optional[int] = None,
    exact_budget_s: Optional[float] = None,
    per_component_budget_s: Optional[float] = None,
    unit_cost_s: Optional[float] = None,
    detailed: bool = False,
    recorder=None,
) -> DirtinessReport:
    """Detect conflicts and bracket the optimal repair cost (no repair).

    The bracket is the sum of per-component brackets over the conflict
    graph's connected components.  Which components are bracketed
    **exactly** is decided by the difficulty scheduler
    (:func:`repro.core.decompose.plan_schedule`): without a global
    budget, every component of at most *exact_threshold* tuples (default
    :data:`~repro.core.decompose.EXACT_COMPONENT_THRESHOLD`) gets a
    branch & bound attempt — empirically instantaneous at that size —
    each capped by *per_component_budget_s*; with *exact_budget_s* set,
    components are ranked by predicted difficulty and granted exact
    attempts easiest-first while the predicted spend fits the **global**
    budget, so the same wall-clock buys the most certified components.
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
    rec = _obs.resolve(recorder)
    with rec.span("pipeline.assess", decomposed=decomposed):
        with rec.span("phase.index"):
            if index is None:
                index = table.conflict_index(fds)
            else:
                index.ensure_for(fds, table)

        verdict = classify(fds)
        defaults = resolve_plan_defaults(
            exact_threshold, None, exact_budget_s, per_component_budget_s,
            unit_cost_s,
        )
        threshold = defaults.threshold

        component_count = 0
        largest = 0
        exact_components = 0
        details = [] if detailed else None
        if decomposed and index.num_edges:
            lower, upper, component_count, largest, exact_components = (
                _assess_decomposed_bracket(
                    table, fds, index, defaults, threshold, details, rec
                )
            )
        else:
            lower, upper = _bracket_component(index, table)
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
    defaults,
    threshold: int,
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
            False,
            "best",
            threshold,
            defaults.exact_budget_s,
            defaults.per_component_budget_s,
            defaults.node_limit,
            defaults.unit_cost_s,
        )
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
                        component.index, node_limit=defaults.node_limit,
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


def _decomposed_outcome(
    decomp,
    verdict: DichotomyResult,
    methods,
    kept_lists,
    parallel: Optional[int],
    lower_bounds=None,
) -> CleaningResult:
    """Assemble the :class:`CleaningResult` (report included) of a
    decomposed S-repair from its per-component kept sets.

    Shared by :func:`_clean_deletions_decomposed` and the streaming
    :class:`repro.session.RepairSession`: both feed per-component solves
    — freshly computed or cache-served — through the same assembly, so a
    session result is byte-identical to a from-scratch ``clean``.

    *lower_bounds*, when given, supplies a precomputed lower bound per
    component — the matching bound, or ``max(matching, LP)`` for
    components that qualify under :func:`_lp_qualifies` (``None``
    entries fall back to recomputing the matching bound from the
    component index); every bound involved is a pure function of the
    component, so cached and recomputed values coincide exactly.
    """
    from .exec import assemble_s_result

    table = decomp.table
    lower = upper = 0.0
    exact_components = 0
    for i, (component, method, kept) in enumerate(
        zip(decomp.components, methods, kept_lists)
    ):
        deleted = component.table.total_weight() - component.table.total_weight(kept)
        if method in ("dichotomy", "exact"):
            lower += deleted
            upper += deleted
            exact_components += 1
        else:
            # The solver already ran BYE + maximalisation for this
            # component: its deleted weight *is* the Proposition 3.3
            # upper bound; only the matching lower bound is left.
            bound = lower_bounds[i] if lower_bounds is not None else None
            if bound is None:
                bound = component.index.matching_lower_bound()
            lower += bound
            upper += deleted
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
    result = assemble_s_result(decomp, methods, kept_lists, parallel)
    return CleaningResult(
        cleaned=result.repair,
        report=report,
        strategy="deletions",
        distance=result.distance,
        optimal=result.optimal,
        ratio_bound=result.ratio_bound,
        method=result.method,
        method_counts=result.method_counts,
        component_count=result.component_count,
    )


def _lp_qualifies(plan, size: int, threshold: int, guarantee: str) -> bool:
    """Whether a component's lower bound should be tightened by the
    half-integral LP relaxation: only components the *plan* leaves
    approximate (too large for the threshold, or downgraded by the
    global scheduler) under a bound-seeking guarantee.  A component
    whose exact solve fell back at *run* time keeps the matching bound —
    the fallback is wall-clock dependent, and the bound must stay a pure
    function of the plan for serial/pool and session/clean byte-identity.
    The rule lives here so the streaming session and the one-shot
    pipeline can never disagree on it."""
    return (
        guarantee != "fast"
        and plan.method == "approx"
        and (plan.downgraded or size > threshold)
    )


def _clean_deletions_decomposed(
    table: Table,
    fds: FDSet,
    guarantee: str,
    index: ConflictIndex,
    parallel: Optional[int],
    exact_threshold: int = EXACT_COMPONENT_THRESHOLD,
    exact_budget_s: Optional[float] = None,
    per_component_budget_s: Optional[float] = None,
    unit_cost_s: Optional[float] = None,
    recorder=None,
    executor=None,
) -> CleaningResult:
    """The decomposed S-repair pipeline: decompose once, schedule the
    portfolio (:func:`repro.core.decompose.plan_schedule` — difficulty-
    ranked under a global *exact_budget_s*, the historical size rule
    otherwise), solve each component by its plan, and derive the
    dirtiness report from the same per-component solutions.  The
    *effective* methods come back from the solve — an exact component
    that outran its wall-clock slice re-solved approximately — so report
    and label describe what ran.  Approximated components that qualify
    (:func:`_lp_qualifies`) report ``max(matching, LP)`` as their lower
    bound.  An enabled *recorder* times the decompose / plan / solve /
    merge phases and receives one ``solve`` record per component (via
    :func:`repro.exec.solve_components`)."""
    from .exec import solve_components

    rec = _obs.resolve(recorder)
    verdict = classify(fds)
    with rec.span("phase.decompose"):
        decomp = decompose(table, fds, index)
    with rec.span("phase.plan"):
        plans = decomp.plan_schedule(
            verdict.tractable,
            guarantee,
            exact_threshold,
            exact_budget_s,
            per_component_budget_s,
            unit_cost_s=unit_cost_s,
        )
    with rec.span("phase.solve"):
        kept_lists, methods = solve_components(
            decomp, [plan.method for plan in plans], parallel, plans=plans,
            recorder=rec, executor=executor,
        )
    with rec.span("phase.merge"):
        lower_bounds = [None] * len(plans)
        for i, (component, plan) in enumerate(zip(decomp.components, plans)):
            if _lp_qualifies(plan, component.size, exact_threshold, guarantee):
                lp = component.index.lp_lower_bound()
                if lp is not None:
                    matching = component.index.matching_lower_bound()
                    lower_bounds[i] = max(matching, lp)
        return _decomposed_outcome(
            decomp, verdict, methods, kept_lists, parallel, lower_bounds
        )


def clean(
    table: Table,
    fds: FDSet,
    strategy: str = "deletions",
    guarantee: str = "best",
    index: Optional[ConflictIndex] = None,
    decomposed: bool = True,
    parallel: Optional[int] = None,
    exact_threshold: Optional[int] = None,
    exact_budget_s: Optional[float] = None,
    per_component_budget_s: Optional[float] = None,
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
    parallel:
        Number of worker processes for per-component solving (implies
        nothing when ≤ 1; the merge is deterministic regardless).
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
        (:func:`repro.core.decompose.plan_schedule`): components are
        ranked by predicted branch & bound difficulty, granted exact
        solves easiest-first while the *predicted* cumulative cost fits
        the budget, and the residual tail is planned approximate up
        front — so the plan, and with it the serial and worker-pool
        results, is deterministic (the budget buys certified components,
        not a race).  Each granted solve still carries the unspent
        budget as a hard wall-clock ceiling; one that outruns it is
        re-solved with the Bar-Yehuda–Even 2-approximation —
        ``guarantee="optimal"`` raises instead, true to "provably
        optimal or fail" — and the report/ratio bound describe the
        fallback honestly.  On the updates strategy the budget bounds
        the assessment bracket only: the U-repair solvers search update
        space, not vertex covers, and carry their own node-count budget
        (``exact_budget`` in :mod:`repro.core.urepair`).
    per_component_budget_s:
        The historical *per-solve* wall-clock ceiling (default:
        unlimited) — the pre-scheduler semantics of ``exact_budget_s``.
        Usable alone (every ≤-threshold component attempted, each solve
        individually capped) or together with the global budget (each
        scheduled slice additionally capped).  With a per-solve budget
        set and no global one, results may legitimately differ run to
        run on components near the budget boundary.
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
        Optional :class:`repro.exec.PersistentWorkerPool` that the
        decomposed deletions path routes per-component solves through
        (see :func:`repro.exec.solve_components`).  Pure solvers keep
        the result byte-identical to local execution; executor failure
        falls back locally.
    """
    if strategy not in ("deletions", "updates"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if guarantee not in ("best", "optimal", "fast"):
        raise ValueError(f"unknown guarantee {guarantee!r}")
    rec = _obs.resolve(recorder)
    defaults = resolve_plan_defaults(
        exact_threshold, None, exact_budget_s, per_component_budget_s,
        unit_cost_s,
    )
    threshold = defaults.threshold
    with rec.span("pipeline.clean", strategy=strategy, guarantee=guarantee):
        with rec.span("phase.index"):
            if index is None:
                index = table.conflict_index(fds)
            else:
                index.ensure_for(fds, table)

        if strategy == "deletions" and decomposed:
            # One decomposition drives both the report and the repair:
            # the components each portfolio method solved *exactly*
            # contribute their solved cost to the bracket (lower =
            # upper), only the approximated ones are bracketed by
            # matching/BYE — so the report comes out at least as tight
            # as standalone assessment, without solving any component
            # twice.
            return _clean_deletions_decomposed(
                table, fds, guarantee, index, parallel, threshold,
                exact_budget_s, per_component_budget_s,
                defaults.unit_cost_s, recorder=rec, executor=executor,
            )
        return _clean_global(
            table, fds, strategy, guarantee, index, decomposed, parallel,
            threshold, exact_budget_s, per_component_budget_s, rec,
        )


def _clean_global(
    table: Table,
    fds: FDSet,
    strategy: str,
    guarantee: str,
    index: ConflictIndex,
    decomposed: bool,
    parallel: Optional[int],
    threshold: int,
    exact_budget_s: Optional[float],
    per_component_budget_s: Optional[float],
    rec,
) -> CleaningResult:
    """The non-decomposed-deletions tail of :func:`clean` (global
    S-repair and both U-repair paths): assess, then one global solve
    under a ``phase.solve`` span."""
    report = assess(
        table, fds, index=index, decomposed=decomposed,
        exact_threshold=threshold, exact_budget_s=exact_budget_s,
        per_component_budget_s=per_component_budget_s, recorder=rec,
    )

    if strategy == "deletions":
        # One global solve: the global budget and the per-solve ceiling
        # coincide, whichever is set bounds it.
        solve_budget_s = (
            exact_budget_s if exact_budget_s is not None
            else per_component_budget_s
        )
        with rec.span("phase.solve"):
            if guarantee == "fast" or (
                guarantee == "best"
                and not report.dichotomy.tractable
                and len(table) > threshold
            ):
                result = approx_s_repair(table, fds, index=index)
            else:
                try:
                    result = optimal_s_repair(
                        table, fds, index=index, exact_budget_s=solve_budget_s
                    )
                except ExactBudgetExceeded:
                    if guarantee == "optimal":
                        # "provably optimal or fail": hitting the budget
                        # IS the failure mode the caller signed up for.
                        raise
                    result = approx_s_repair(table, fds, index=index)
        return CleaningResult(
            cleaned=result.repair,
            report=report,
            strategy=strategy,
            distance=result.distance,
            optimal=result.optimal,
            ratio_bound=result.ratio_bound,
            method=result.method,
            method_counts=result.method_counts,
            component_count=result.component_count,
        )

    # strategy == "updates"
    with rec.span("phase.solve"):
        if decomposed:
            from .core.urepair import optimal_u_repair
            from .exec import decomposed_u_repair

            if guarantee == "optimal":
                u_result = optimal_u_repair(
                    table, fds, index=index, decomposed=True, parallel=parallel
                )
            else:
                # "fast" disables per-component exhaustive search,
                # keeping the whole path polynomial; "best" allows it
                # within budget.
                u_result = decomposed_u_repair(
                    table,
                    fds,
                    allow_exact_search=guarantee == "best",
                    parallel=parallel,
                    index=index,
                )
        elif guarantee == "fast":
            from .core.approx import approx_u_repair

            u_result: URepairResult = approx_u_repair(table, fds, index=index)
        elif guarantee == "optimal":
            from .core.urepair import optimal_u_repair

            u_result = optimal_u_repair(table, fds, index=index)
        else:
            u_result = u_repair(table, fds, index=index)
    return CleaningResult(
        cleaned=u_result.update,
        report=report,
        strategy=strategy,
        distance=u_result.distance,
        optimal=u_result.optimal,
        ratio_bound=u_result.ratio_bound,
        method=u_result.method,
        method_counts=u_result.method_counts,
        component_count=u_result.component_count,
    )
