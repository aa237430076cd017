"""ISSUE-7 — difficulty-driven solver scheduling and LP-tightened
brackets.

Pins the scheduling layer's contracts:

* the bound chain **matching ≤ LP ≤ exact optimum ≤ BYE** on random
  weighted components, kernel and ``--no-kernel`` alike (and the LP is
  bit-identical between the two substrates);
* global-budget exhaustion produces the *same kept set* serial vs.
  parallel (the plan is computed once and shipped with the tasks);
* plan determinism: a zero global budget downgrades every component,
  and plans stay aligned with their components;
* :func:`resolve_plan_defaults` is the single source of truth for the
  portfolio knobs;
* ``fdrepair assess --json`` emits the per-component schedule;
* the patched (incremental) component computation agrees between the
  kernel CSR path and the dict reference.
"""

import json
import random
from contextlib import closing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import kernel
from repro.core.conflict_index import ConflictIndex
from repro.core.decompose import (
    DEFAULT_NODE_LIMIT,
    EXACT_COMPONENT_THRESHOLD,
    decompose,
    polynomial_bracket,
    resolve_plan_defaults,
)
from repro.core.exact import exact_cover_of_index
from repro.core.fd import FDSet
from repro.core.table import Table
from repro.datagen.synthetic import portfolio_mix_table
from repro.exec import PersistentWorkerPool
from repro.io.tables import table_to_csv
from repro.pipeline import assess, clean

OVERLAY = FDSet("A -> B; B -> C")

_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.0)


def random_conflict_tables():
    """Random weighted tables under the APX-hard overlay Δ: values from
    small domains so conflicts (and odd cycles, where LP > matching) are
    common."""
    value = st.integers(min_value=0, max_value=2)
    row = st.tuples(value, value, value).map(
        lambda t: (f"a{t[0]}", f"b{t[1]}", f"c{t[2]}")
    )
    weight = st.sampled_from(_WEIGHTS)
    return st.lists(
        st.tuples(row, weight), min_size=2, max_size=12
    ).map(
        lambda pairs: Table.from_rows(
            ("A", "B", "C"), [p[0] for p in pairs], [p[1] for p in pairs]
        )
    )


def _bound_chain(table):
    """Per component: (matching, lp, exact optimum, bye upper)."""
    chains = []
    for component in decompose(table, OVERLAY).components:
        index = component.index
        matching = index.matching_lower_bound()
        lp = index.lp_lower_bound()
        cover = exact_cover_of_index(index)
        exact = index.total_weight(cover)
        _, upper = polynomial_bracket(index, component.table)
        chains.append((matching, lp, exact, upper))
    return chains


@settings(max_examples=40, deadline=None)
@given(random_conflict_tables())
def test_matching_le_lp_le_exact_le_bye(table):
    for matching, lp, exact, upper in _bound_chain(table):
        assert lp is not None
        assert matching <= lp + 1e-9
        assert lp <= exact + 1e-9
        assert exact <= upper + 1e-9


@settings(max_examples=20, deadline=None)
@given(random_conflict_tables())
def test_bound_chain_identical_without_kernel(table):
    with_kernel = _bound_chain(table)
    with kernel.disabled():
        # A fresh equivalent table, so no kernel-built index is reused.
        rows = [table[tid] for tid in table.ids()]
        weights = [table.weight(tid) for tid in table.ids()]
        reference = _bound_chain(
            Table.from_rows(table.schema, rows, weights)
        )
    # The LP (and the whole chain) must be bit-identical across
    # substrates — the bound feeds reported brackets, which the
    # kernel-vs-dict identity gates compare exactly.
    assert with_kernel == reference


def _small_mix(seed=5):
    return portfolio_mix_table(
        ("A", "B", "C"),
        easy_components=2,
        easy_size=150,
        hard_components=2,
        hard_size=60,
        hard_values=8,
        seed=seed,
    )


def test_budget_exhaustion_same_kept_set_serial_vs_parallel():
    # A budget that admits the cheap components and exhausts on the
    # tangles: the downgrade decision is made once, in the plan, so the
    # serial and pooled dispatches must delete the same tuples.
    for budget in (0.0, 0.05, 30.0):
        serial = clean(_small_mix(), OVERLAY, exact_budget_s=budget)
        with closing(PersistentWorkerPool(4)) as pool:
            parallel = clean(
                _small_mix(), OVERLAY, exact_budget_s=budget, executor=pool
            )
        assert serial.distance == parallel.distance
        assert table_to_csv(serial.cleaned) == table_to_csv(
            parallel.cleaned
        )


def test_zero_budget_downgrades_every_component():
    decomp = decompose(_small_mix(), OVERLAY)
    plans = decomp.plan_schedule(
        False, resolve_plan_defaults(exact_budget_s=0.0)
    )
    assert len(plans) == len(decomp.components)
    assert all(plan.method == "approx" for plan in plans)
    assert all(plan.downgraded for plan in plans)
    # And deterministic: planning is pure arithmetic over features.
    again = decomp.plan_schedule(
        False, resolve_plan_defaults(exact_budget_s=0.0)
    )
    assert plans == again


def test_generous_budget_plans_by_difficulty():
    decomp = decompose(_small_mix(), OVERLAY)
    plans = decomp.plan_schedule(
        False, resolve_plan_defaults(exact_budget_s=3600.0)
    )
    assert len(plans) == len(decomp.components)
    # A generous budget grants everything eligible; every plan carries
    # its difficulty evidence.
    assert all(plan.method == "exact" for plan in plans)
    assert all(plan.features is not None for plan in plans)
    assert all(plan.difficulty is not None for plan in plans)
    # The easy paths must be rated easier than the dense tangles.
    path_difficulty = max(
        plan.difficulty for plan in plans if plan.features.size == 150
    )
    tangle_difficulty = min(
        plan.difficulty for plan in plans if plan.features.size < 150
    )
    assert path_difficulty < tangle_difficulty


def test_resolve_plan_defaults():
    defaults = resolve_plan_defaults()
    assert defaults.threshold == EXACT_COMPONENT_THRESHOLD
    assert defaults.node_limit == DEFAULT_NODE_LIMIT
    assert defaults.exact_budget_s is None

    explicit = resolve_plan_defaults(
        exact_threshold=32,
        node_limit=500,
        exact_budget_s=1.5,
    )
    assert explicit.threshold == 32
    assert explicit.node_limit == 500
    assert explicit.exact_budget_s == 1.5


def test_assess_json_emits_component_schedule(tmp_path, capsys):
    table = _small_mix()
    csv_path = tmp_path / "mix.csv"
    csv_path.write_text(table_to_csv(table), encoding="utf-8")

    assert main(
        ["assess", str(csv_path), "A -> B; B -> C", "--json",
         "--exact-budget", "0.0"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["component_count"] == len(payload["components"])
    assert payload["lower_bound"] <= payload["upper_bound"]
    for detail in payload["components"]:
        assert detail["method"] in ("exact", "approx", "dichotomy")
        assert detail["bracket_source"] in ("matching", "lp", "exact")
        assert detail["lower_bound"] <= detail["upper_bound"] + 1e-9
    # Zero budget downgrades everything — the JSON shows the schedule.
    assert all(d["downgraded"] for d in payload["components"])
    assert any(d["bracket_source"] == "lp" for d in payload["components"])


def test_patched_components_kernel_matches_dict():
    rng = random.Random(9)
    table = _small_mix(seed=7)
    victims = [tid for tid in table.ids() if rng.random() < 0.15]

    index = ConflictIndex(table, OVERLAY)
    index.components()  # prime, then patch incrementally
    index.remove_many(victims)
    patched = index.components()

    with kernel.disabled():
        rows = [table[tid] for tid in table.ids()]
        weights = [table.weight(tid) for tid in table.ids()]
        fresh = Table.from_rows(table.schema, rows, weights)
        reference = ConflictIndex(fresh, OVERLAY)
        reference.components()
        reference.remove_many(victims)
        assert reference.components() == patched


def test_clean_report_honours_unit_cost_on_every_path():
    # The updates strategy and the global path assess under the same
    # policy as the decomposed deletions path: a unit cost that prices
    # every exact bracket out of the global budget shows in the report.
    table = _small_mix()
    knobs = dict(exact_budget_s=30.0, unit_cost_s=1e6)
    priced_out = assess(table, OVERLAY, **knobs)
    assert priced_out != assess(table, OVERLAY, exact_budget_s=30.0)
    updates = clean(table, OVERLAY, strategy="updates", guarantee="fast",
                    **knobs)
    assert updates.report == priced_out
    for strategy in ("deletions", "updates"):
        global_run = clean(table, OVERLAY, strategy=strategy,
                           guarantee="fast", decomposed=False, **knobs)
        assert global_run.report == assess(table, OVERLAY,
                                           decomposed=False, **knobs)
