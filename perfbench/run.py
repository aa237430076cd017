"""End-to-end benchmark of fdrepair: batch clean, streaming deltas, daemon.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clean-300k --seed 1 --seconds 15 --trace 0

Runs one workload in this fresh process against the sources under
``src/`` and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the layer functions are wrapped with spans and the metrics are the
per-layer ones.  Lines before it (prefixed ``#``) carry the run's stamp,
every metric with its unit, and what each layer metric should move.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
#: Requests stop at this many seconds into the run, so that a run ends
#: well inside 180 s even against a wedged daemon.
RUN_BUDGET_S = 120.0

WORKLOADS = ("clean-300k", "stream-300k", "serve-8x20k")

#: name → unit of each end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

_CLEAN = "op_p50_ms, ops_per_s on clean-300k"
_STREAM = "op_p50_ms, ops_per_s on stream-300k"
_SERVE = "op_p50_ms, ops_per_s on serve-8x20k"
#: name → (unit, what it should move) of each per-layer metric.
#: A workload that never enters a layer reports it as 0.
LAYERS = {
    "table.build_ms": ("ms", _CLEAN),
    "index.build_ms": ("ms", _CLEAN + "; setup_s on stream-300k"),
    "decompose.ms": ("ms", _CLEAN),
    "plan.ms": ("ms", _CLEAN),
    "solve.ms": ("ms", _CLEAN),
    "merge.ms": ("ms", _CLEAN),
    "index.conflict_edges": ("count", _CLEAN),
    "decompose.components": ("count", _CLEAN),
    "solve.exact_components": ("count", _CLEAN),
    "gc.pause_ms": ("ms", _CLEAN + "; " + _STREAM),
    "session.apply_ms": ("ms", _STREAM),
    "session.repair_ms": ("ms", _STREAM),
    "session.open_s": ("s", "setup_s on stream-300k"),
    "session.first_repair_s": ("s", "setup_s on stream-300k"),
    "session.first_apply_ms": ("ms", "ops_per_s on stream-300k"),
    "session.cache_hit_ratio": ("ratio", _STREAM),
    "session.cache_lookups": ("count", _STREAM),
    "session.solves_per_op": ("count", _STREAM),
    "wire.rtt_ms.append": ("ms", _SERVE),
    "wire.rtt_ms.delete": ("ms", _SERVE),
    "wire.rtt_ms.status": ("ms", _SERVE),
    "wire.rtt_ms.repair": ("ms", _SERVE),
    "server.op_ms.append": ("ms", _SERVE),
    "server.op_ms.delete": ("ms", _SERVE),
    "server.op_ms.status": ("ms", _SERVE),
    "server.op_ms.repair": ("ms", _SERVE),
    "transport.ms.append": ("ms", _SERVE),
    "transport.ms.delete": ("ms", _SERVE),
    "transport.ms.status": ("ms", _SERVE),
    "transport.ms.repair": ("ms", _SERVE),
    "manager.run_op_ms": ("ms", _SERVE),
    "journal.append_us": ("us", _SERVE),
    "snapshot.compact_ms": ("ms", _SERVE),
    "protocol.us": ("us", _SERVE),
    "cache.hit_ratio": ("ratio", _SERVE + "; setup_s on serve-8x20k"),
    "cache.lookups": ("count", _SERVE),
    "snapshot.count": ("count", _SERVE),
    "pool.retries": ("count", _SERVE),
    "pool.worker_deaths": ("count", _SERVE),
    "trace.unattributed_ms": ("ms", "nothing: the share no layer span covers"),
    "trace.traced_op_ms": ("ms", "nothing: traced op time, for the overhead"),
    "trace.overhead_ms": ("ms", "nothing: traced minus untraced op median"),
}


def _import_program() -> None:
    """Make the checkout's own sources importable, and only them."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    started = time.perf_counter()
    import tempfile

    from common import (
        filesystem_of, generate_rows, median, p90, pin_cpus, stamp,
    )
    from spans import Tracer

    run_dir = os.path.join(RUN_DIR, f"{args.workload}-s{args.seed}"
                                    f"-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    tempfile.tempdir = os.path.join(run_dir, "tmp")
    traced = bool(args.trace)
    tracer = Tracer()
    cpus = pin_cpus()
    extra = {"affinity": cpus}
    try:
        if args.workload == "serve-8x20k":
            import serve

            if cpus:
                os.sched_setaffinity(0, {cpus["load_generator"]})
            budget = RUN_BUDGET_S - (time.perf_counter() - started)
            out = serve.run_serve(ROOT, run_dir, args.seconds, args.seed,
                                  tracer, traced, budget,
                                  cpus["program"] if cpus else None)
            extra.update({
                "parallel": serve.PARALLEL,
                "state_dir": os.path.relpath(out.info["state_dir"], ROOT),
                "state_dir_fs": filesystem_of(run_dir),
                "journal_fsync": serve.JOURNAL_FSYNC,
                "snapshot_every": serve.SNAPSHOT_EVERY,
                "max_line_bytes": out.info["max_line_bytes"],
                "line_limit_bytes": serve.LINE_LIMIT,
            })
        else:
            import inproc

            if cpus:
                os.sched_setaffinity(0, {cpus["program"]})
            rows = generate_rows(inproc.ROWS, args.seed)
            if args.workload == "clean-300k":
                out = inproc.run_clean(rows, args.seconds, tracer, traced)
            else:
                out = inproc.run_stream(rows, args.seconds, args.seed,
                                        tracer, traced)
            del rows
            extra.update({"parallel": None, "state_dir": None})
    finally:
        tracer.uninstall()
        shutil.rmtree(os.path.join(run_dir, "tmp"), ignore_errors=True)

    info = stamp(args.workload, args.seed, int(args.seconds), traced,
                 **extra)
    print("# stamp " + json.dumps(info, sort_keys=True))
    ops = len(out.op_ms)
    e2e = {
        "setup_s": median(out.setup_s),
        "op_p50_ms": median(out.op_ms),
        "ops_per_s": ops / out.busy_s if out.busy_s else 0.0,
        "peak_rss_mb": out.peak_rss_mb,
    }
    print(f"# setup_s samples {[round(s, 4) for s in out.setup_s]}")
    for name, value in e2e.items():
        print(f"# metric {name} {value:.6g} {END_TO_END[name]}")
    if ops >= 100:
        print(f"# metric op_p90_ms {p90(out.op_ms):.6g} ms (n={ops})")
    else:
        print(f"# op_p90_ms not reported: {ops} ops < 100")
    frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"# metric failed_op_frac {frac:.6g} ({out.failed}/{out.attempted})")
    for problem in out.checks_failed[:10]:
        print(f"# CHECK FAILED: {problem}")

    layers = {name: float(out.layers.get(name, 0.0)) for name in LAYERS}
    if traced:
        for name, value in layers.items():
            unit, moves = LAYERS[name]
            print(f"# layer {name} {value:.6g} {unit} -> {moves}")
        tracer.dump(os.path.join(run_dir, "spans.jsonl"))
    metrics = layers if traced else e2e
    units = {n: LAYERS[n][0] for n in LAYERS} if traced else END_TO_END
    with open(os.path.join(run_dir, "result.json"), "w") as handle:
        json.dump({"stamp": info, "end_to_end": e2e, "layers": layers,
                   "op_ms": out.op_ms, "setup_samples_s": out.setup_s,
                   "attempted": out.attempted, "failed": out.failed,
                   "checks_failed": out.checks_failed}, handle, indent=1)
    result = {
        "correct": not out.checks_failed and out.failed == 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
