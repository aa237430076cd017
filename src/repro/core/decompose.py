"""Conflict-graph decomposition: per-component sub-instances + portfolio.

Conflict graphs of real dirty tables decompose into many small
independent components (the per-component dispatch of Section 4 already
exploits this for attribute-disjoint Δ; here we exploit it for *any* Δ,
at the instance level).  Since consistency of a subset is exactly
independence in the conflict graph, and FD violation is a pairwise
property, the two repair problems decompose along connected components:

* **S-repairs** — a minimum-weight vertex cover splits exactly into
  per-component minimum covers, so the union of per-component optimal
  S-repairs (plus every conflict-free tuple, kept verbatim) is a global
  optimal S-repair, and per-component distances add up.
* **U-repairs** — the restriction of a consistent update to a component
  is a consistent update of the component's sub-table, so per-component
  optimal distances sum to at most the global optimum; the merge is
  re-checked globally because updates drawing on the active domain can,
  in rare cases, collide across components (callers fall back to the
  global path when that happens — see :func:`repro.pipeline.clean`).

:func:`decompose` extracts the components from a table's (cached or
prebuilt) :class:`~repro.core.conflict_index.ConflictIndex` and projects
per-component sub-tables (via the trusted fast-path
:meth:`~repro.core.table.Table.subset` constructor) and sub-indexes (via
:meth:`~repro.core.conflict_index.ConflictIndex.project` — no
re-bucketing).  Conflict-free tuples never enter any solver: an S-repair
is the table minus the deleted ids (:func:`repro.exec.assemble_s_result`),
and :meth:`Decomposition.merge_updates` leaves them untouched.

The **portfolio policy** (:func:`plan_s_method`) picks a per-component
S-repair method: the ``OptSRepair`` dichotomy recursion when Δ permits,
exact vertex cover when the component is small enough
(:data:`EXACT_COMPONENT_THRESHOLD`), and the Bar-Yehuda–Even
2-approximation otherwise.  The same threshold is the single source of
truth for :func:`repro.pipeline.clean`'s exact-vs-approx decision and
for the exact per-component brackets of :func:`repro.pipeline.assess`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .conflict_index import ConflictIndex
from .fd import FDSet
from .table import Table, TupleId

__all__ = [
    "DEFAULT_NODE_LIMIT",
    "DIFFICULTY_UNIT_COST_S",
    "EXACT_COMPONENT_THRESHOLD",
    "Component",
    "ComponentFeatures",
    "ComponentPlan",
    "Decomposition",
    "SolvePolicy",
    "component_features",
    "decompose",
    "plan_s_method",
    "polynomial_bracket",
    "predict_difficulty",
    "resolve_plan_defaults",
]

#: Component-size boundary between exact and approximate S-repair on the
#: APX-hard side of the dichotomy.  At or below the threshold the exact
#: vertex-cover branch & bound is run (empirically instantaneous on
#: conflict components of this size — the matching lower bound prunes
#: hard); above it the Bar-Yehuda–Even 2-approximation takes over.  The
#: historical value, 64, was the single-word bitmask kernel's width; the
#: multi-word :class:`~repro.core.kernel.BitsetVC` solves well past it
#: with the same decision-for-decision mirror, so the default boundary
#: now sits at 128 — a 100k-tuple table whose conflicts form 100-tuple
#: clusters is solved *exactly*, where the old boundary settled for
#: ratio 2.  Raise it further (``exact_threshold=`` /
#: ``--exact-threshold``) up to
#: :data:`~repro.core.kernel.MAX_BITMASK_VERTICES` when paired with an
#: ``exact_budget_s`` escape hatch for pathological dense components.
#: Shared by the portfolio policy (:func:`plan_s_method`),
#: :func:`repro.pipeline.clean`, and the exact per-component brackets of
#: :func:`repro.pipeline.assess`.
EXACT_COMPONENT_THRESHOLD = 128

#: Branch & bound node budget per exact solve — the single default the
#: CLI, :func:`repro.pipeline.clean`, :class:`repro.session.RepairSession`
#: and the worker pool all resolve through :func:`resolve_plan_defaults`
#: (the ``node_limit`` of a :class:`SolvePolicy`).
DEFAULT_NODE_LIMIT = 2000

#: Seconds one unit of :func:`predict_difficulty` is predicted to cost.
#: Calibrated on the ``bench_portfolio`` mixed family: dense hard
#: tangles (~100 vertices, density ~0.15, gap_rel ~0.6) sit at
#: difficulty ~2e4–1e5 and measure ~0.25–2+ s in the branch & bound on
#: stock hardware, i.e. ~1e-5–6e-5 s/unit; easier probes measure
#: ~2e-6–2e-5.  The global scheduler only needs the predictor to *rank*
#: components and to ration the budget to the right order of magnitude,
#: so this geometric-middle constant tolerates an order of magnitude of
#: hardware drift.
DIFFICULTY_UNIT_COST_S = 2e-5


@dataclass
class Component:
    """One connected component of the conflict graph.

    ``ids`` are the member tuple identifiers in table order; ``table`` is
    the projected sub-table (trusted fast-path construction, shares row
    storage with the parent); ``index`` is the projected sub-index,
    seeded into ``table``'s derived cache so per-component solvers reuse
    it for free.
    """

    ordinal: int
    ids: Tuple[TupleId, ...]
    table: Table
    index: ConflictIndex

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return self.index.num_edges


@dataclass
class Decomposition:
    """A table split into conflict components plus its conflict-free rest.

    ``components`` are ordered by the table position of their earliest
    member.  Every merge reassembles results in canonical table order,
    so decomposed repairs are deterministic regardless of how (or where)
    the per-component solves ran.
    """

    table: Table
    fds: FDSet
    index: ConflictIndex
    components: List[Component]

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def largest_component(self) -> int:
        return max((c.size for c in self.components), default=0)

    def conflicting_tuple_count(self) -> int:
        return sum(c.size for c in self.components)

    @property
    def consistent_ids(self) -> Tuple[TupleId, ...]:
        """The tuples in no conflict at all, in table order — computed
        on each read (O(|T|)); no merge needs them."""
        conflicting = {tid for c in self.components for tid in c.ids}
        return tuple(
            tid for tid in self.table.ids() if tid not in conflicting
        )

    def plan_schedule(
        self,
        tractable: bool,
        policy: Optional["SolvePolicy"] = None,
    ) -> List["ComponentPlan"]:
        """The difficulty-driven successor of per-component
        :func:`plan_s_method`: one :class:`ComponentPlan` per component,
        in component order, under *policy* (default: the library
        defaults).  Shared by :func:`repro.pipeline.clean`,
        :func:`repro.pipeline.assess`, and the streaming
        :class:`repro.session.RepairSession`, so all three compute
        byte-identical plans for the same instance and policy.

        Without a global budget (*exact_budget_s* ``None``) this is the
        size rule — per-component :func:`plan_s_method`, no wall-clock
        ceiling, and **no feature computation at all** (streaming
        sessions plan on every delta; this path must stay O(1) per
        component).

        With a global budget, hard-Δ components under ``guarantee="best"``
        are scheduled by ascending :func:`predict_difficulty`: the
        scheduler walks the eligible components easiest-first, grants
        ``"exact"`` while the *predicted* cumulative cost fits the
        budget, and downgrades the residual tail to ``"approx"``
        (``downgraded=True``).  Eligibility is feasibility, not the size
        threshold — any component the exact solvers accept
        (≤ ``min(node_limit, MAX_BITMASK_VERTICES)`` vertices) may be
        granted exactness, which is the point: many easy *large*
        components beat one hard small one.  Each granted solve ships a
        wall-clock slice of ``budget − predicted spend so far`` as its
        hard ceiling.  The *plan* is pure arithmetic over predictions —
        no wall-clock reads — so serial and worker-pool runs of the same
        instance compute the identical plan, and a zero budget
        deterministically plans every hard-Δ component approximate.  The
        *result* is not: a granted solve that outruns its slice falls
        back to the 2-approximation by the wall clock, so a component
        near its slice may come out exact on one run and approximate on
        the next.

        ``guarantee="optimal"`` plans every component exact with the
        full budget as each slice (a solve that outruns it raises
        :class:`~repro.graphs.vertex_cover.ExactBudgetExceeded`, true to
        "provably optimal or fail"); ``"fast"`` plans every component
        approximate; tractable Δ plans the polynomial dichotomy
        recursion everywhere (budget-irrelevant).
        """
        if policy is None:
            policy = SolvePolicy()
        components = self.components
        guarantee = policy.guarantee
        exact_budget_s = policy.exact_budget_s
        if guarantee == "fast":
            return [_SIZE_RULE_PLANS["approx"]] * len(components)
        if tractable:
            return [_SIZE_RULE_PLANS["dichotomy"]] * len(components)
        if guarantee == "optimal":
            plan = ComponentPlan("exact", budget_s=exact_budget_s)
            return [plan] * len(components)
        if exact_budget_s is None:
            return [
                _SIZE_RULE_PLANS[
                    plan_s_method(c.size, tractable, guarantee,
                                  policy.threshold)
                ]
                for c in components
            ]
        # Global budget: rank by predicted difficulty, grant exactness
        # easiest-first while the predicted spend fits.
        from . import kernel as _kernel

        ceiling = min(policy.node_limit, _kernel.MAX_BITMASK_VERTICES)
        unit = policy.unit_cost_s
        plans: List[Optional[ComponentPlan]] = [None] * len(components)
        ranked: List[Tuple[float, int, float, ComponentFeatures]] = []
        for i, component in enumerate(components):
            if component.size > ceiling:
                plans[i] = ComponentPlan("approx", downgraded=False)
                continue
            feats = component_features(component)
            difficulty = predict_difficulty(feats)
            ranked.append((difficulty, i, difficulty * unit, feats))
        ranked.sort(key=lambda entry: (entry[0], entry[1]))
        spent = 0.0
        for difficulty, i, predicted, feats in ranked:
            if exact_budget_s > 0 and spent + predicted <= exact_budget_s:
                plans[i] = ComponentPlan(
                    "exact",
                    difficulty=difficulty,
                    predicted_s=predicted,
                    budget_s=exact_budget_s - spent,
                    features=feats,
                )
                spent += predicted
            else:
                plans[i] = ComponentPlan(
                    "approx",
                    difficulty=difficulty,
                    predicted_s=predicted,
                    downgraded=True,
                    features=feats,
                )
        return plans  # every slot filled: ceiling branch or ranked loop

    def merge_updates(
        self, updates_per_component: Sequence[Mapping[Tuple[TupleId, str], object]]
    ) -> Table:
        """Compose per-component cell updates into one update of the
        parent table (conflict-free tuples stay untouched)."""
        merged: Dict[Tuple[TupleId, str], object] = {}
        for updates in updates_per_component:
            merged.update(updates)
        return self.table.with_updates(merged)


def decompose(
    table: Table, fds: FDSet, index: Optional[ConflictIndex] = None
) -> Decomposition:
    """Split *table* into the connected components of its conflict graph.

    Costs one shared :class:`ConflictIndex` build plus O(conflicting
    tuples) for the projections; the sub-tables are views sharing row
    storage with the parent.  A consistent table decomposes into zero
    components.  The result is memoised on the table alongside the
    index (tables are immutable), so assessment and repair of the same
    ``(table, Δ)`` decompose once; like the cached index, the cached
    components (and their sub-indexes) are pristine and shared — copy
    before mutating.
    """
    if index is None:
        index = table.conflict_index(fds)
    else:
        index.ensure_for(fds, table)
    cache_key = ("decomposition", fds)
    cached = table._cache.get(cache_key)
    if cached is not None and cached.index is index:
        return cached
    components: List[Component] = []
    for ordinal, ids in enumerate(index.components()):
        subtable = table.subset(ids)
        subindex = index.project(subtable, set(ids))
        components.append(Component(ordinal, tuple(ids), subtable, subindex))
    decomposition = Decomposition(
        table=table, fds=fds, index=index, components=components
    )
    table._cache[cache_key] = decomposition
    return decomposition


def plan_s_method(
    size: int,
    tractable: bool,
    guarantee: str = "best",
    threshold: int = EXACT_COMPONENT_THRESHOLD,
) -> str:
    """The portfolio policy: pick an S-repair method for one component.

    * ``"dichotomy"`` — the polynomial ``OptSRepair`` recursion, whenever
      Δ is on the tractable side (optimal at any component size);
    * ``"exact"`` — exact vertex-cover branch & bound, for hard Δ on
      components at or below *threshold* (and at any size under the
      ``"optimal"`` guarantee, where the caller insists);
    * ``"approx"`` — Bar-Yehuda–Even, ratio 2, for everything else, and
      for every component under the ``"fast"`` guarantee (which promises
      polynomial time regardless of instance shape).
    """
    if guarantee == "fast":
        return "approx"
    if tractable:
        return "dichotomy"
    if guarantee == "optimal" or size <= threshold:
        return "exact"
    return "approx"


# ---------------------------------------------------------------------------
# Difficulty-driven scheduling: features, predictor, plans
# ---------------------------------------------------------------------------

def polynomial_bracket(index: ConflictIndex, table: Table) -> Tuple[float, float]:
    """Polynomial ``[matching, Bar-Yehuda–Even]`` bracket of one
    (sub-)index — the admissible cost bounds every assessment and
    difficulty feature computation starts from.  Runs array-native on
    kernel-backed indexes (mask/CSR fast paths inside the bound
    computations)."""
    from ..graphs.vertex_cover import bar_yehuda_even, maximalize_independent_set

    lower = index.matching_lower_bound()
    if index.num_edges:
        cover = bar_yehuda_even(index)
        kept = {tid for tid in table.ids() if tid not in cover}
        kept = maximalize_independent_set(index, kept)
        upper = table.total_weight() - table.total_weight(kept)
    else:
        upper = 0.0
    return lower, upper


@dataclass(frozen=True)
class ComponentFeatures:
    """Difficulty features of one conflict component.

    All array-native reads: size and edge count from the sub-index,
    weight spread from the weight array, and the polynomial
    ``[matching, BYE]`` bracket via :func:`polynomial_bracket` (mask-view
    fast paths on kernel-backed components).  The bracket *is* a feature
    — the matching-vs-BYE gap is the strongest predictor of branch &
    bound blowup (a tight bracket prunes the search at the root) — so
    computing features subsumes the polynomial assessment of the
    component and callers never pay for both.
    """

    size: int
    edges: int
    density: float
    weight_spread: float
    matching: float
    upper: float

    @property
    def gap(self) -> float:
        """Absolute matching-vs-BYE gap (0 ⇒ the bracket is tight and
        exact search is free)."""
        return self.upper - self.matching

    @property
    def gap_rel(self) -> float:
        """The gap as a fraction of the upper bound, in [0, 1]."""
        return self.gap / self.upper if self.upper > 0 else 0.0


def component_features(component: Component) -> ComponentFeatures:
    """Compute :class:`ComponentFeatures` for one component."""
    index = component.index
    n = component.size
    m = index.num_edges
    density = (2.0 * m) / (n * (n - 1)) if n > 1 else 0.0
    weights = list(component.table.weights().values())
    w_min = min(weights)
    w_max = max(weights)
    spread = w_max / w_min if w_min > 0 else 1.0
    matching, upper = polynomial_bracket(index, component.table)
    return ComponentFeatures(
        size=n,
        edges=m,
        density=density,
        weight_spread=spread,
        matching=matching,
        upper=upper,
    )


def predict_difficulty(features: ComponentFeatures) -> float:
    """Predicted exact-solve difficulty of a component, unitless.

    The model: branch & bound cost grows exponentially in how much of
    the component the matching prune *fails* to certify — captured by
    ``density · size · gap_rel`` in the exponent — scaled by the linear
    per-node work (``size``) and dampened pruning under heterogeneous
    weights (``√weight_spread``).  A component with no edges, or whose
    polynomial bracket is already tight, costs nothing: the solver
    certifies it at the root.  The exponent is clamped so a pathological
    feature combination yields a huge finite number that sorts last
    instead of overflowing.

    Absolute scale is calibrated by :data:`DIFFICULTY_UNIT_COST_S`; the
    scheduler's correctness only needs the *ordering* to be right, which
    is what ``bench_portfolio``'s mixed easy-large/hard-small family
    gates.
    """
    if features.edges == 0 or features.gap <= 0.0:
        return 0.0
    exponent = min(features.density * features.size * features.gap_rel, 40.0)
    return features.size * math.sqrt(features.weight_spread) * 2.0 ** exponent


@dataclass(frozen=True)
class ComponentPlan:
    """One component's scheduled solve: the method, the difficulty
    evidence behind it, and the wall-clock slice it ships with.

    ``difficulty``/``predicted_s`` are ``None`` without a global budget,
    where no features are computed; ``downgraded`` marks a component the
    global scheduler *would* have solved exactly by size but left
    approximate because the budget ran out — exactly the components
    whose brackets the LP bound tightens.  ``budget_s`` is the
    wall-clock ceiling shipped with the task (``None``: none); serial
    and pool paths read the same plan, and the plan is pure arithmetic
    over predictions, never wall-clock measurements.  ``features``
    carries the computed :class:`ComponentFeatures` when the scheduler
    computed them — the polynomial bracket is among them, so assessment
    never brackets the same component twice.
    """

    method: str
    difficulty: Optional[float] = None
    predicted_s: Optional[float] = None
    budget_s: Optional[float] = None
    downgraded: bool = False
    features: Optional[ComponentFeatures] = None


@dataclass(frozen=True)
class SolvePolicy:
    """Every solver setting as one resolved value — one source of truth
    for the CLI, :func:`repro.pipeline.clean`/`assess`, the streaming
    session, and the worker pool (built by :func:`resolve_plan_defaults`;
    the defaults are the library defaults).

    *threshold* is the exact-vs-approximate component-size boundary,
    *node_limit* the branch & bound node budget per exact solve,
    *exact_budget_s* the **global** budget of the difficulty scheduler
    (the only wall-clock budget), *unit_cost_s* the seconds one unit
    of predicted difficulty costs, and *guarantee* the portfolio
    guarantee of :func:`repro.pipeline.clean`.  Frozen and hashable, so
    it can scope cache keys — guarantee included — and cross the worker
    boundary as is.  A policy pickled before *guarantee* existed reads
    the class default ``"best"``."""

    threshold: int = EXACT_COMPONENT_THRESHOLD
    node_limit: int = DEFAULT_NODE_LIMIT
    exact_budget_s: Optional[float] = None
    unit_cost_s: float = DIFFICULTY_UNIT_COST_S
    guarantee: str = "best"


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def resolve_plan_defaults(
    exact_threshold: Optional[int] = None,
    node_limit: Optional[int] = None,
    exact_budget_s: Optional[float] = None,
    unit_cost_s: Optional[float] = None,
    guarantee: str = "best",
) -> SolvePolicy:
    """Resolve and validate the portfolio knobs to their effective
    :class:`SolvePolicy`.

    ``None`` means "the library default": *exact_threshold* →
    :data:`EXACT_COMPONENT_THRESHOLD`, *node_limit* →
    :data:`DEFAULT_NODE_LIMIT`.  *exact_budget_s* stays ``None`` when
    unset (= unlimited); it is the **global** budget of the difficulty
    scheduler.  *unit_cost_s* overrides the hand-calibrated
    :data:`DIFFICULTY_UNIT_COST_S` (``None`` keeps it) — how a
    machine-specific ``fdrepair calibrate`` fit is deployed without
    monkeypatching the module constant.  Centralised here so
    ``session.py``, ``exec.py``, ``pipeline.py``, the daemon and the CLI
    can never drift on what an omitted knob means — or on what a
    malformed one is: a threshold must be an integer ≥ 0, a node limit
    an integer ≥ 1, a budget a finite number ≥ 0 and a unit cost a
    finite number > 0 (booleans are not numbers here), and a guarantee
    one of ``"best"``, ``"optimal"``, ``"fast"``; anything else raises
    ``ValueError``.
    """
    if guarantee not in ("best", "optimal", "fast"):
        raise ValueError(f"unknown guarantee {guarantee!r}")
    if exact_threshold is None:
        exact_threshold = EXACT_COMPONENT_THRESHOLD
    elif not (_is_int(exact_threshold) and exact_threshold >= 0):
        raise ValueError(
            f"exact_threshold must be an integer >= 0, got {exact_threshold!r}"
        )
    if node_limit is None:
        node_limit = DEFAULT_NODE_LIMIT
    elif not (_is_int(node_limit) and node_limit >= 1):
        raise ValueError(
            f"node_limit must be an integer >= 1, got {node_limit!r}"
        )
    if exact_budget_s is not None and not (
        _is_finite(exact_budget_s) and exact_budget_s >= 0
    ):
        raise ValueError(
            f"exact_budget_s must be a finite number >= 0, got "
            f"{exact_budget_s!r}"
        )
    if unit_cost_s is None:
        unit_cost_s = DIFFICULTY_UNIT_COST_S
    elif not (_is_finite(unit_cost_s) and unit_cost_s > 0):
        raise ValueError(
            f"unit_cost_s must be a finite number > 0, got {unit_cost_s!r}"
        )
    return SolvePolicy(
        threshold=exact_threshold,
        node_limit=node_limit,
        exact_budget_s=exact_budget_s,
        unit_cost_s=unit_cost_s,
        guarantee=guarantee,
    )


#: The budget-free plans, one shared instance per method: a plan is
#: frozen, and the size rule re-plans every component on every repair.
_SIZE_RULE_PLANS = {
    method: ComponentPlan(method)
    for method in ("approx", "dichotomy", "exact")
}
