"""The two in-process workloads: batch ``clean`` and a streaming session.

Both run the library in the benchmark's own process (a fresh one per
run) under a closed loop: the next op starts when the previous one has
returned and been checked.
"""

from __future__ import annotations

import gc
import random
from typing import Dict, List

from common import (
    FDS, SCHEMA, SETUP_REPEATS, clusters_for, mean, median,
    optimal_distance, violations, vm_hwm_mb,
)
from spans import Tracer, perf

ROWS = 300_000


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks_failed: List[str] = []
        self.op_ms: List[float] = []
        self.setup_s: List[float] = []
        self.busy_s = 0.0
        self.peak_rss_mb = 0.0
        self.layers: Dict[str, float] = {}
        self.info: Dict[str, object] = {}

    def check(self, ok: bool, what: str) -> bool:
        """Record one correctness check; a failed one fails its op."""
        if not ok:
            self.checks_failed.append(what)
            self.failed += 1
        return ok


def _layer_means(tracer: Tracer, names, ops) -> Dict[str, float]:
    """Mean milliseconds per traced op for each layer span name."""
    out = {}
    for metric, span_name in names:
        per_op = tracer.per_op(span_name)
        out[metric] = mean([per_op.get(op, 0.0) for op in ops])
    return out


def _trace_summary(out: Outcome, tracer: Tracer, traced_ms, plain_ms,
                   gc_pause_s: float) -> None:
    ops = [root.op for root in tracer.roots()]
    unattributed = tracer.root_self_ms()
    out.layers["gc.pause_ms"] = gc_pause_s * 1e3 / max(1, len(ops))
    out.layers["trace.unattributed_ms"] = mean(
        [unattributed[op] for op in ops])
    out.layers["trace.traced_op_ms"] = mean(traced_ms)
    out.layers["trace.overhead_ms"] = (
        median(traced_ms) - median(plain_ms)
        if traced_ms and plain_ms else 0.0)


def run_clean(rows: List[tuple], seconds: float, tracer: Tracer,
              traced: bool) -> Outcome:
    """Closed loop of batch repairs, each over a freshly built table
    (the conflict index is cached on the ``Table``, so reusing one
    would skip the index build)."""
    from repro import Table, clean
    from repro.core.fd import parse_fd_set

    fds = parse_fd_set(FDS)
    expected = optimal_distance(len(rows))
    out = Outcome()

    def one_op():
        table = Table.from_rows(SCHEMA, rows)
        return table, clean(table, fds)

    def check(table, result) -> None:
        kept = result.cleaned
        out.check(violations(kept.rows().values()) == 0,
                  "repair violates Δ")
        out.check(set(kept.ids()) <= set(table.ids()),
                  "repair is not a subset")
        out.check(result.distance == expected,
                  f"distance {result.distance} != optimum {expected}")

    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf()
        table, result = one_op()
        out.setup_s.append(perf() - start)
        check(table, result)
        del table, result

    if traced:
        install_clean_spans(tracer)
    traced_ms: List[float] = []
    plain_ms: List[float] = []
    gc_pause = 0.0
    i = 0
    while out.busy_s < seconds:
        gc.collect()
        tracer.active = traced and i % 2 == 0
        tracer.gc_pause_s = 0.0
        out.attempted += 1
        start = perf()
        with tracer.span("op", op=i):
            with tracer.span("table.build"):
                table = Table.from_rows(SCHEMA, rows)
            result = clean(table, fds)
        took = perf() - start
        (traced_ms if tracer.active else plain_ms).append(took * 1e3)
        gc_pause += tracer.gc_pause_s
        tracer.active = False
        out.busy_s += took
        out.op_ms.append(took * 1e3)
        check(table, result)
        del table, result
        i += 1
    out.peak_rss_mb = vm_hwm_mb()

    if traced:
        ops = [root.op for root in tracer.roots()]
        out.layers.update(_layer_means(tracer, (
            ("table.build_ms", "table.build"),
            ("index.build_ms", "index.build"),
            ("decompose.ms", "decompose"),
            ("plan.ms", "plan"),
            ("solve.ms", "solve"),
            ("merge.ms", "merge"),
        ), ops))
        out.layers["index.conflict_edges"] = mean(tracer.values("index.build"))
        out.layers["decompose.components"] = mean(tracer.values("decompose"))
        out.layers["solve.exact_components"] = mean(tracer.values("solve"))
        _trace_summary(out, tracer, traced_ms, plain_ms, gc_pause)
    return out


def install_clean_spans(tracer: Tracer) -> None:
    """Wrap the layers ``pipeline.clean`` calls into."""
    import repro.exec
    import repro.pipeline
    from repro.core.decompose import Decomposition
    from repro.core.table import Table

    tracer.wrap(Table, "conflict_index", "index.build",
                value=lambda index: index.num_edges)
    tracer.wrap(repro.pipeline, "decompose", "decompose",
                value=lambda decomp: decomp.component_count)
    tracer.wrap(Decomposition, "plan_schedule", "plan")
    tracer.wrap(repro.exec, "solve_components", "solve",
                value=lambda res: sum(1 for m in res[1] if m == "exact"))
    tracer.wrap(repro.exec, "assemble_s_result", "merge")
    tracer.install_gc_meter()


class DeltaScript:
    """Seeded single-tuple deltas over a clustered table: a third append
    a tuple colliding with an existing conflict cluster, a third append
    a conflict-free tuple, a third delete a live tuple."""

    def __init__(self, n: int, seed, first_id: int = 1) -> None:
        self.rng = random.Random(seed)
        self.clusters = clusters_for(n)
        self.live: List[int] = list(range(first_id, first_id + n))
        self.next_id = first_id + n
        self.fresh = 0

    def next(self):
        return self.make(("collide", "fresh", "delete")[self.rng.randrange(3)])

    def make(self, kind: str):
        """One delta of *kind* as ``("append", (id, row))`` or
        ``("delete", id)``."""
        if kind == "delete" and self.live:
            pos = self.rng.randrange(len(self.live))
            self.live[pos], self.live[-1] = self.live[-1], self.live[pos]
            return "delete", self.live.pop()
        if kind == "collide":
            c = self.rng.randrange(self.clusters)
            row = (f"a{c}", f"b{c}.{self.rng.randrange(4)}", f"x{c}")
        else:
            self.fresh += 1
            row = (f"n{self.fresh}", f"m{self.fresh}", f"z{self.fresh}")
        tid = self.next_id
        self.next_id += 1
        self.live.append(tid)
        return "append", (tid, row)


def run_stream(rows: List[tuple], seconds: float, seed: int,
               tracer: Tracer, traced: bool) -> Outcome:
    """One ``RepairSession`` over the table, driven by single-tuple
    deltas, each followed by its repair."""
    from repro import RepairSession, Table, clean
    from repro.core.fd import parse_fd_set

    fds = parse_fd_set(FDS)
    expected = optimal_distance(len(rows))
    out = Outcome()
    opens: List[float] = []
    first_repairs: List[float] = []
    session = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            session = None
        gc.collect()
        table = Table.from_rows(SCHEMA, rows)
        start = perf()
        session = RepairSession(table, fds)
        opened = perf()
        result = session.repair()
        done = perf()
        del table
        opens.append(opened - start)
        first_repairs.append(done - opened)
        out.setup_s.append(done - start)
        out.check(result.distance == expected,
                  f"first repair distance {result.distance} != {expected}")
        del result

    script = DeltaScript(len(rows), seed)
    stats0 = (session.stats.cache_hits, session.stats.cache_misses)
    traced_ms: List[float] = []
    plain_ms: List[float] = []
    gc_pause = 0.0
    if traced:
        tracer.install_gc_meter()
    gc.collect()
    i = 0
    loop_start = perf()
    while perf() - loop_start < seconds:
        # The first delta is always an append, so the lazy per-FD bucket
        # rebuild it triggers lands on op 0 in every run.  It stays
        # untraced and is reported alone as session.first_apply_ms.
        kind, payload = script.make("collide") if i == 0 else script.next()
        tracer.active = traced and i % 2 == 1
        tracer.gc_pause_s = 0.0
        out.attempted += 1
        start = perf()
        with tracer.span("op", op=i):
            with tracer.span("session.apply"):
                if kind == "append":
                    tid, row = payload
                    session.append([row], ids=[tid], repair=False)
                else:
                    session.delete([payload], repair=False)
            applied = perf()
            with tracer.span("session.repair"):
                session.repair()
        end = perf()
        (traced_ms if tracer.active else plain_ms).append((end - start) * 1e3)
        gc_pause += tracer.gc_pause_s
        tracer.active = False
        out.op_ms.append((end - start) * 1e3)
        if i == 0:
            out.layers["session.first_apply_ms"] = (applied - start) * 1e3
        i += 1
    out.busy_s = perf() - loop_start
    out.peak_rss_mb = vm_hwm_mb()

    hits = session.stats.cache_hits - stats0[0]
    misses = session.stats.cache_misses - stats0[1]
    out.layers["session.open_s"] = median(opens)
    out.layers["session.first_repair_s"] = median(first_repairs)
    out.layers["session.cache_lookups"] = float(hits + misses)
    out.layers["session.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    out.layers["session.solves_per_op"] = misses / max(1, i)
    if traced:
        ops = [root.op for root in tracer.roots()]
        out.layers.update(_layer_means(tracer, (
            ("session.apply_ms", "session.apply"),
            ("session.repair_ms", "session.repair"),
        ), ops))
        _trace_summary(out, tracer, traced_ms, plain_ms, gc_pause)

    # The final repair must delete exactly what a from-scratch batch
    # repair of the session's final table deletes.
    final = session.repair()
    current = session.table
    deleted = set(current.ids()) - set(final.cleaned.ids())
    scratch_table = Table(SCHEMA, dict(current.rows()), dict(current.weights()))
    scratch = clean(scratch_table, fds)
    scratch_deleted = set(scratch_table.ids()) - set(scratch.cleaned.ids())
    out.check(deleted == scratch_deleted,
              "session repair differs from a from-scratch clean")
    out.check(final.distance == scratch.distance,
              "session distance differs from a from-scratch clean")
    out.check(violations(final.cleaned.rows().values()) == 0,
              "session repair violates Δ")
    session.close()
    return out
