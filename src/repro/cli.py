"""Command-line interface: ``fdrepair <command>``.

Commands
--------
``classify``
    Dichotomy verdict and Example 3.5-style simplification trace for an
    FD set given as a string (``"A B -> C; C -> D"``).
``assess``
    Dirtiness assessment of a CSV table: conflict statistics, the
    per-component bracket on the optimal deletion cost, and the
    dichotomy verdict — no repair is committed.
``s-repair``
    S-repair of a CSV table via the cleaning pipeline; ``--guarantee``
    picks optimal / best-effort / fast-approximate.
``u-repair``
    U-repair of a CSV table via the cleaning pipeline, reporting the
    guarantee achieved.
``mpd``
    Most probable database of a probabilistic CSV table (weights are the
    tuple probabilities).
``stream``
    A streaming repair session: consume JSONL tuple batches (appends and
    deletes), re-repairing incrementally after each — only the conflict
    components a batch touches are re-solved.  Malformed batches are
    reported and skipped (the session survives; the exit code turns
    nonzero); ``--strict`` restores abort-on-first-error.
``serve``
    The multi-tenant repair daemon: many concurrent ``(tenant, table,
    Δ)`` sessions over one shared worker pool and content-addressed
    solution cache, speaking the JSONL protocol of
    :mod:`repro.protocol` over TCP or stdio.
``recover``
    Inspect (``--dry-run``) or offline-recover a daemon ``--state-dir``:
    snapshot age, format version and contents (or why it is
    unreadable), the journal chain found on disk, and a replay estimate
    — without starting the daemon.
``trace summarize``
    Roll a ``--trace`` JSONL telemetry log up into phase / method /
    tenant / op tables (see :mod:`repro.obs` for the record schema).
``calibrate``
    Fit the difficulty cost model's seconds-per-unit constant (and
    optionally its exponent) from the predicted-vs-actual solve records
    of a ``--trace`` log.

``assess``, ``s-repair``, ``u-repair``, ``stream``, and ``serve`` all
take ``--trace PATH`` to append a structured telemetry trace — spans,
per-component solve records, and a closing summary — consumable by the
two analysis verbs above.

The repair commands run the conflict-decomposed engine: ``--parallel N``
solves components on N supervised worker processes (``stream`` keeps
them warm across batches), ``--exact-threshold`` moves the
exact-vs-approximate component-size boundary, ``--portfolio`` prints the
per-component method mix, and ``--global`` restores the undecomposed
path.  The CSV layout is ``id,<attributes...>,weight`` (see
:mod:`repro.io.tables`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .core.decompose import resolve_plan_defaults
from .core.dichotomy import classify
from .core.fd import FDSet, parse_fd_set
from .core.mpd import most_probable_database
from .graphs.vertex_cover import ExactBudgetExceeded
from .io.tables import table_from_csv, table_to_csv
from .pipeline import CleaningResult, assess, clean

__all__ = ["main", "build_parser"]


def _add_repair_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--guarantee",
        choices=("best", "optimal", "fast"),
        default="best",
        help=(
            "repair guarantee: optimal where affordable (best, default), "
            "provably optimal or fail (optimal), polynomial approximation "
            "(fast)"
        ),
    )
    parser.add_argument(
        "--parallel",
        type=int,
        metavar="N",
        default=None,
        help="solve conflict components on N supervised worker processes",
    )
    parser.add_argument(
        "--exact-threshold",
        type=int,
        metavar="N",
        default=None,
        help=(
            "component-size boundary between exact and approximate "
            "solving on hard FD sets (default 128); raise for tighter "
            "repairs, lower to bound latency"
        ),
    )
    _add_exact_budget_option(parser)
    parser.add_argument(
        "--portfolio",
        action="store_true",
        help="print the per-component solver portfolio mix",
    )
    parser.add_argument(
        "--global",
        dest="decomposed",
        action="store_false",
        help="disable conflict decomposition (one global solver call)",
    )
    _add_kernel_option(parser)
    _add_trace_option(parser)
    parser.add_argument("--out", help="write the result CSV here")


def _add_exact_budget_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--exact-budget",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "global exact-solve budget in wall-clock seconds: components "
            "are ranked by predicted branch & bound difficulty and "
            "solved exactly easiest-first while the predicted spend "
            "fits; the rest fall to the LP-bracketed 2-approximation "
            "up front (default: unlimited).  Bounds deletion repairs "
            "and assessment brackets; u-repair's update search has its "
            "own node budget"
        ),
    )
    parser.add_argument(
        "--unit-cost",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "seconds one unit of predicted difficulty costs on this "
            "machine (default: the hand-calibrated constant).  Deploy a "
            "'fdrepair calibrate' fit here to rescale what the global "
            "--exact-budget believes it can afford; the difficulty "
            "ranking — and so the plan's determinism — is unchanged"
        ),
    )


def _add_kernel_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-kernel",
        dest="use_kernel",
        action="store_false",
        default=True,
        help=(
            "force the dict reference paths instead of the interned "
            "columnar kernel (debugging aid; results are identical "
            "either way, the kernel is just faster)"
        ),
    )


def _apply_kernel_choice(args: argparse.Namespace) -> None:
    """Honour ``--no-kernel`` before any conflict structure is built."""
    from .core import kernel

    if not getattr(args, "use_kernel", True):
        kernel.set_enabled(False)


def _add_solve_timeout_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--solve-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "per-solve deadline on the --parallel worker pool: a solve "
            "past it is sent again with backoff, and its worker is failed "
            "over after 2 misses (default: none — a long solve is never "
            "shot)"
        ),
    )


def _pool_for(args: argparse.Namespace, recorder=None):
    """An unstarted :class:`repro.exec.PersistentWorkerPool` of
    ``--parallel N`` workers, with ``--solve-timeout`` (where the command
    has it) as its per-solve deadline; ``None`` when N ≤ 1."""
    if not args.parallel or args.parallel <= 1:
        return None
    from .exec import PersistentWorkerPool

    return PersistentWorkerPool(
        args.parallel, solve_timeout_s=getattr(args, "solve_timeout", None),
        recorder=recorder,
    )


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "append a structured JSONL telemetry trace to PATH: nested "
            "spans, one record per component solve (planned vs effective "
            "method, predicted vs actual seconds), and a closing summary "
            "of counters and latency histograms; analyse with "
            "'fdrepair trace summarize' and 'fdrepair calibrate'"
        ),
    )


def _recorder_for(args: argparse.Namespace):
    """A sink-backed :class:`repro.obs.Recorder` for ``--trace PATH``,
    or ``None`` (commands then run on the guaranteed-no-op recorder)."""
    path = getattr(args, "trace", None)
    if not path:
        return None
    from . import obs

    return obs.Recorder(sink=obs.JsonlTraceSink(path))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrepair",
        description=(
            "Optimal subset/update repairs for functional dependencies "
            "(PODS 2018 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="dichotomy verdict for an FD set"
    )
    p_classify.add_argument("fds", help='FD set, e.g. "A -> B; B -> C"')

    p_assess = sub.add_parser(
        "assess", help="dirtiness report with a per-component cost bracket"
    )
    p_assess.add_argument("table", help="CSV file (id,<attrs...>,weight)")
    p_assess.add_argument("fds", help="FD set string")
    p_assess.add_argument(
        "--global",
        dest="decomposed",
        action="store_false",
        help="single global bracket instead of per-component sums",
    )
    p_assess.add_argument(
        "--exact-threshold",
        type=int,
        metavar="N",
        default=None,
        help="bracket components of at most N tuples exactly (default 128)",
    )
    p_assess.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the report as JSON, including one record per conflict "
            "component with its predicted difficulty, scheduled bracket "
            "method, and bracket source (matching / lp / exact)"
        ),
    )
    _add_exact_budget_option(p_assess)
    _add_kernel_option(p_assess)
    _add_trace_option(p_assess)

    p_srepair = sub.add_parser("s-repair", help="compute an S-repair")
    p_srepair.add_argument("table", help="CSV file (id,<attrs...>,weight)")
    p_srepair.add_argument("fds", help="FD set string")
    _add_repair_options(p_srepair)
    _add_solve_timeout_option(p_srepair)

    p_urepair = sub.add_parser("u-repair", help="compute a U-repair")
    p_urepair.add_argument("table", help="CSV file (id,<attrs...>,weight)")
    p_urepair.add_argument("fds", help="FD set string")
    _add_repair_options(p_urepair)

    p_mpd = sub.add_parser("mpd", help="most probable database")
    p_mpd.add_argument("table", help="CSV file; weights are probabilities")
    p_mpd.add_argument("fds", help="FD set string")
    p_mpd.add_argument("--out", help="write the database CSV here")

    p_stream = sub.add_parser(
        "stream",
        help="incremental repair session over JSONL tuple batches",
        description=(
            "Run a streaming repair session: start from an initial CSV "
            "table (or an empty table over --schema), then apply one "
            "JSONL operation per line and re-repair incrementally.  "
            'Operations: {"op": "append", "rows": [...]} with rows as '
            "value lists or attribute-keyed objects (optional weights/"
            'ids arrays), and {"op": "delete", "ids": [...]}.  Only the '
            "conflict components an operation touches are re-solved; "
            "everything else is served from the session's component "
            "cache."
        ),
    )
    p_stream.add_argument("fds", help="FD set string")
    p_stream.add_argument(
        "batches",
        nargs="?",
        default="-",
        help="JSONL operations file (default: stdin)",
    )
    p_stream.add_argument("--table", help="initial CSV table (id,<attrs...>,weight)")
    p_stream.add_argument(
        "--schema",
        help='comma-separated attributes for an empty initial table, e.g. "A,B,C"',
    )
    p_stream.add_argument(
        "--guarantee",
        choices=("best", "optimal", "fast"),
        default="best",
        help="repair guarantee per re-repair (default: best)",
    )
    p_stream.add_argument(
        "--parallel",
        type=int,
        metavar="N",
        default=None,
        help="keep N warm worker processes for cache-miss components",
    )
    p_stream.add_argument(
        "--exact-threshold",
        type=int,
        metavar="N",
        default=None,
        help="exact-vs-approximate component-size boundary (default 128)",
    )
    _add_solve_timeout_option(p_stream)
    _add_exact_budget_option(p_stream)
    _add_kernel_option(p_stream)
    _add_trace_option(p_stream)
    p_stream.add_argument("--out", help="write the final repaired CSV here")
    p_stream.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-batch progress lines",
    )
    p_stream.add_argument(
        "--strict",
        action="store_true",
        help=(
            "abort on the first malformed batch (default: report it to "
            "stderr, skip it, keep streaming, and exit nonzero at "
            "end-of-stream)"
        ),
    )

    p_serve = sub.add_parser(
        "serve",
        help="multi-tenant streaming repair daemon",
        description=(
            "Serve many concurrent (tenant, table, Δ) repair sessions "
            "over one shared worker pool and one content-addressed "
            "solution cache.  Speaks a JSONL protocol (one request "
            "object per line, one response line per request) using the "
            "stream op vocabulary plus addressing: open / append / "
            "delete / repair / assess / status / close carry tenant "
            "and session fields; ping / stats / shutdown drive the "
            "daemon itself.  Ops for one session run in arrival order; "
            "sessions proceed independently, and least-recently-used "
            "sessions beyond --max-resident are frozen to their "
            "serialised state and rehydrated on the next request."
        ),
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=7473,
        metavar="N",
        help="TCP port (0 picks a free one; printed on startup)",
    )
    p_serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve a single connection over stdin/stdout instead of TCP",
    )
    p_serve.add_argument(
        "--parallel",
        type=int,
        metavar="N",
        default=1,
        help=(
            "warm worker processes shared by every session (0 solves "
            "in-process on the daemon's executor threads)"
        ),
    )
    p_serve.add_argument(
        "--max-sessions",
        type=int,
        metavar="N",
        default=256,
        help="total open sessions across all tenants",
    )
    p_serve.add_argument(
        "--max-resident",
        type=int,
        metavar="N",
        default=64,
        help="sessions kept live before LRU eviction to serialised state",
    )
    p_serve.add_argument(
        "--max-tenant-sessions",
        type=int,
        metavar="N",
        default=32,
        help="open sessions one tenant may hold",
    )
    p_serve.add_argument(
        "--max-tenant-bytes",
        type=int,
        metavar="N",
        default=None,
        help="per-tenant memory budget in bytes (default 256 MiB)",
    )
    p_serve.add_argument(
        "--state-dir",
        metavar="PATH",
        default=None,
        help=(
            "directory for crash-safe state: an append-only op journal, "
            "periodic snapshots, and the frozen-session spool.  A "
            "restarted daemon recovers every tenant session "
            "byte-identically (sessions are deterministic, so replaying "
            "acknowledged ops rebuilds exactly what was lost).  Omit "
            "for a stateless in-memory daemon"
        ),
    )
    p_serve.add_argument(
        "--journal-fsync",
        type=int,
        metavar="N",
        default=8,
        help=(
            "journal records between fsync calls (writes are flushed "
            "per record regardless; this bounds what a machine crash — "
            "not a process kill — can lose)"
        ),
    )
    p_serve.add_argument(
        "--snapshot-every",
        type=int,
        metavar="N",
        default=256,
        help="journal records between snapshot compactions",
    )
    p_serve.add_argument(
        "--journal-max-bytes",
        type=int,
        metavar="N",
        default=None,
        help=(
            "live journal size that triggers an early snapshot "
            "compaction (rotation with --journal-keep > 0); default: "
            "only the --snapshot-every op-count trigger"
        ),
    )
    p_serve.add_argument(
        "--journal-keep",
        type=int,
        metavar="N",
        default=0,
        help=(
            "rotated journal segments to retain (journal.jsonl.1 … .N) "
            "at each snapshot compaction; recovery replays the whole "
            "chain it finds on disk when the snapshot is lost (default "
            "0: truncate on compact)"
        ),
    )
    _add_solve_timeout_option(p_serve)
    p_serve.add_argument(
        "--unit-cost",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "calibrated seconds-per-difficulty-unit applied to every "
            "session this daemon opens (per-open payloads win); deploy "
            "a 'fdrepair calibrate' fit across the fleet here"
        ),
    )
    _add_kernel_option(p_serve)
    _add_trace_option(p_serve)

    p_recover = sub.add_parser(
        "recover",
        help="inspect or recover a daemon --state-dir offline",
        description=(
            "Operate on a crash-safe daemon state directory without the "
            "daemon.  --dry-run inspects it read-only: snapshot age, "
            "format version and contents (or why it is unreadable), the "
            "cache entries migrating it would drop, the journal chain "
            "found on disk (journal.jsonl.1 … .N and the live segment) "
            "and any lines past its first damaged record, the ops a "
            "recovery would replay, and a replay estimate.  Without "
            "--dry-run the state is actually recovered offline (exactly "
            "the daemon's own boot path, acting on the same reading the "
            "dry run prints): an unreadable snapshot and the damaged "
            "journal segments are set aside, the tail is replayed and "
            "the state compacted, so the next daemon start is instant."
        ),
    )
    p_recover.add_argument(
        "--state-dir",
        metavar="PATH",
        required=True,
        help="daemon state directory (journal, snapshot, spool)",
    )
    p_recover.add_argument(
        "--dry-run",
        action="store_true",
        help="inspect only; touch nothing",
    )
    p_recover.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    p_trace = sub.add_parser(
        "trace",
        help="analyse a --trace telemetry log",
        description=(
            "Inspect a JSONL telemetry trace written by --trace: roll "
            "spans up into the pipeline phase breakdown, solve records "
            "into per-method predicted-vs-actual totals, and op records "
            "into per-tenant and per-op latency tables."
        ),
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize", help="phase / method / tenant / op rollups"
    )
    p_tsum.add_argument("path", help="trace JSONL file")
    p_tsum.add_argument(
        "--json", action="store_true", help="emit the full rollup as JSON"
    )

    p_cal = sub.add_parser(
        "calibrate",
        help="fit the difficulty cost model from a --trace log",
        description=(
            "Fit DIFFICULTY_UNIT_COST_S — the seconds-per-difficulty-"
            "unit constant the scheduler multiplies predicted difficulty "
            "by — from the exact-solve records of a telemetry trace, by "
            "least squares in log space.  Reports the hand-calibrated "
            "constant's mean relative prediction error on the same "
            "trace next to the fitted constant's, so a regression is "
            "visible immediately."
        ),
    )
    p_cal.add_argument("path", help="trace JSONL file")
    p_cal.add_argument(
        "--fit-exponent",
        action="store_true",
        help=(
            "additionally fit the two-parameter model "
            "actual ≈ c · difficulty^γ"
        ),
    )
    p_cal.add_argument(
        "--json", action="store_true", help="emit the fit report as JSON"
    )
    return parser


class _InputError(Exception):
    """Bad command-line input — an unparsable FD set, an unreadable or
    malformed CSV, an FD attribute the table lacks.  :func:`main`
    reports it as one ``error:`` line on stderr with exit code 2;
    anything raised after the inputs parsed propagates as before."""


def _parse_fds(text: str) -> FDSet:
    try:
        return parse_fd_set(text)
    except ValueError as exc:
        raise _InputError(f"bad FD set {text!r}: {exc}") from None


def _check_schema(schema, fds: FDSet) -> None:
    missing = sorted(set(fds.attributes) - set(schema))
    if missing:
        raise _InputError(
            "FD set mentions attributes the table does not have: "
            + ", ".join(missing)
        )


def _read_inputs(args: argparse.Namespace):
    """The ``(table, fds)`` of a command taking a CSV table and an FD
    set, validated against each other."""
    fds = _parse_fds(args.fds)
    try:
        table = table_from_csv(args.table)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot read table {args.table}: {exc}") from None
    _check_schema(table.schema, fds)
    return table, fds


def _check_policy_args(args: argparse.Namespace) -> None:
    """Refuse malformed solver knobs (a negative or NaN budget, a
    negative threshold, a non-positive unit cost) by the library's own
    rules, before any input is read — ``serve`` before it binds."""
    try:
        resolve_plan_defaults(
            getattr(args, "exact_threshold", None),
            None,
            getattr(args, "exact_budget", None),
            getattr(args, "unit_cost", None),
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _cmd_classify(args: argparse.Namespace) -> int:
    fds = _parse_fds(args.fds)
    result = classify(fds)
    print(f"FD set: {fds}")
    print(f"optimal S-repair complexity: {result.complexity}")
    for line in result.trace_lines():
        print(f"  {line}")
    if result.witness is not None:
        print(f"hardness witness: {result.witness}")
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    _apply_kernel_choice(args)
    table, fds = _read_inputs(args)
    recorder = _recorder_for(args)
    try:
        report = assess(
            table,
            fds,
            decomposed=args.decomposed,
            exact_threshold=args.exact_threshold,
            exact_budget_s=args.exact_budget,
            unit_cost_s=args.unit_cost,
            detailed=args.json,
            recorder=recorder,
        )
    finally:
        if recorder is not None:
            recorder.close()
    if args.json:
        from dataclasses import asdict

        details = report.component_details or ()
        predicted = [
            d.predicted_s for d in details if d.predicted_s is not None
        ]
        payload = {
            "total_tuples": report.total_tuples,
            "total_weight": report.total_weight,
            "conflict_count": report.conflict_count,
            "conflicting_tuples": report.conflicting_tuples,
            "lower_bound": report.lower_bound,
            "upper_bound": report.upper_bound,
            "complexity": report.complexity,
            "consistent": report.consistent,
            "dirtiness_fraction": report.dirtiness_fraction,
            "component_count": report.component_count,
            "largest_component": report.largest_component,
            "exact_components": report.exact_components,
            "predicted_total_s": (
                round(sum(predicted), 9) if predicted else None
            ),
            "granted_budget_s": args.exact_budget,
            "components": [asdict(detail) for detail in details],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0


def _guarantee_text(result: CleaningResult) -> str:
    if result.optimal:
        return "optimal"
    if result.ratio_bound == 2.0:
        return f"2-approximation (ratio ≤ {result.ratio_bound:g})"
    return f"ratio ≤ {result.ratio_bound:g}"


def _print_portfolio(result: CleaningResult) -> None:
    if result.component_count is None:
        print("conflict components: n/a (global path, no portfolio)")
        return
    print(f"conflict components: {result.component_count}")
    for method, count in sorted((result.method_counts or {}).items()):
        print(f"  {method}: {count} component{'s' if count != 1 else ''}")


def _run_clean(args: argparse.Namespace, strategy: str) -> CleaningResult:
    _apply_kernel_choice(args)
    table, fds = _read_inputs(args)
    recorder = _recorder_for(args)
    # clean starts the pool only for two components or more.
    pool = _pool_for(args, recorder)
    with _closing(recorder), _closing(pool):
        return clean(
            table,
            fds,
            strategy=strategy,
            guarantee=args.guarantee,
            decomposed=args.decomposed,
            exact_threshold=args.exact_threshold,
            exact_budget_s=args.exact_budget,
            unit_cost_s=args.unit_cost,
            recorder=recorder,
            executor=pool,
        )


def _cmd_s_repair(args: argparse.Namespace) -> int:
    result = _run_clean(args, "deletions")
    print(f"method: {result.method} ({_guarantee_text(result)})")
    if args.portfolio:
        _print_portfolio(result)
    print(f"deleted weight: {result.distance:g}")
    print(result.cleaned.to_string())
    if args.out:
        table_to_csv(result.cleaned, args.out)
    return 0


def _cmd_u_repair(args: argparse.Namespace) -> int:
    result = _run_clean(args, "updates")
    print(f"method: {result.method} ({_guarantee_text(result)})")
    if args.portfolio:
        _print_portfolio(result)
    print(f"update distance: {result.distance:g}")
    print(result.cleaned.to_string())
    if args.out:
        table_to_csv(result.cleaned, args.out)
    return 0


def _cmd_mpd(args: argparse.Namespace) -> int:
    table, fds = _read_inputs(args)
    result = most_probable_database(table, fds)
    print(f"method: {result.method}")
    print(f"probability: {result.probability:.6g}")
    print(result.database.to_string())
    if args.out:
        table_to_csv(result.database, args.out)
    return 0


def _closing(resource):
    """Context manager closing *resource* (a recorder or a pool) on
    exit; no-op for ``None``."""
    import contextlib

    if resource is None:
        return contextlib.nullcontext()
    return contextlib.closing(resource)


def _stream_lines(source: str):
    if source == "-":
        yield from sys.stdin
    else:
        with open(source, "r", encoding="utf-8") as handle:
            yield from handle


def _open_stream(source: str):
    """Validate the batches source up front so a missing file diagnoses
    like every other bad input instead of tracebacking mid-stream."""
    if source != "-":
        try:
            open(source, "r", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot read batches file: {exc}", file=sys.stderr)
            return None
    return _stream_lines(source)


def _cmd_stream(args: argparse.Namespace) -> int:
    from .core.table import Table
    from .protocol import (SESSION_OPS, ProtocolError, apply_session_op,
                           decode_line)
    from .session import RepairSession

    _apply_kernel_choice(args)
    if args.table:
        table, fds = _read_inputs(args)
    elif args.schema:
        schema = [a.strip() for a in args.schema.split(",") if a.strip()]
        if not schema:
            print("error: --schema is empty", file=sys.stderr)
            return 2
        fds = _parse_fds(args.fds)
        _check_schema(schema, fds)
        table = Table(schema, {})
    else:
        print("error: stream needs --table or --schema", file=sys.stderr)
        return 2
    lines = _open_stream(args.batches)
    if lines is None:
        return 2

    recorder = _recorder_for(args)
    # --parallel N starts the session's pool up front; a pool that
    # cannot start leaves the session serial.  The pool reports to the
    # trace, so it closes before the recorder.
    pool = _pool_for(args, recorder)
    if pool is not None and not pool.start():
        pool.close()
        print(
            "warning: cannot start worker processes; running locally",
            file=sys.stderr,
        )
        pool = None
    with _closing(recorder), _closing(pool), RepairSession(
        table,
        fds,
        guarantee=args.guarantee,
        pool=pool,
        exact_threshold=args.exact_threshold,
        exact_budget_s=args.exact_budget,
        unit_cost_s=args.unit_cost,
        recorder=recorder,
    ) as session:
        result = session.repair()
        if not args.quiet:
            print(
                f"session open: {len(session)} tuples, "
                f"{result.report.conflict_count} conflicts, "
                f"distance {result.distance:g}"
            )
        # A malformed batch is a data problem, not a session problem:
        # diagnose it on stderr, count it, and keep the session (and
        # every later batch) alive.  --strict restores abort-on-error;
        # either way a rejected batch makes the exit code nonzero.
        rejected = 0

        def reject(number: int, message: str) -> bool:
            nonlocal rejected
            print(f"batch {number}: {message}", file=sys.stderr)
            rejected += 1
            return args.strict

        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                op = decode_line(line)
            except ProtocolError as exc:
                if reject(number, str(exc)):
                    return 1
                continue
            # A batch line carries a session op of the daemon protocol
            # (less `close`), run by the same `apply_session_op`, so a
            # stream file replays against a daemon session verbatim.
            kind = op.get("op")
            if (not isinstance(kind, str) or kind not in SESSION_OPS
                    or kind == "close"):
                if reject(number, f"unknown op {kind!r}"):
                    return 1
                continue
            payload = {k: v for k, v in op.items() if k != "op"}
            start = time.perf_counter()
            try:
                fields = apply_session_op(session, kind, payload)
            except ProtocolError as exc:
                if reject(number, str(exc)):
                    return 1
                continue
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if session.last_result is not None:
                result = session.last_result
            if not args.quiet:
                stats = session.stats
                if kind in ("status", "assess"):
                    print(
                        f"batch {number}: {kind} → |T|={len(session)}, "
                        f"conflicts {fields['conflicts']}, bracket "
                        f"[{fields['lower_bound']:g}, "
                        f"{fields['upper_bound']:g}], "
                        f"{elapsed_ms:.1f} ms"
                    )
                    continue
                what = (
                    kind
                    if kind == "repair"
                    else f"{kind} ×{fields.get('applied', 0)}"
                )
                print(
                    f"batch {number}: {what} → |T|={len(session)}, "
                    f"distance {fields.get('distance', result.distance):g}, "
                    f"components {fields.get('components', 0)}, "
                    f"cache {stats.cache_hits}h/{stats.cache_misses}m, "
                    f"{elapsed_ms:.1f} ms"
                )
        print(f"method: {result.method} ({_guarantee_text(result)})")
        print(f"deleted weight: {result.distance:g}")
        stats = session.stats
        print(
            f"session totals: {stats.appends} appends, {stats.deletes} "
            f"deletes, {stats.repairs} repairs, cache hit rate "
            f"{100 * stats.hit_rate():.0f}%"
            + (f", {stats.pool_solves} pool solves" if stats.pool_solves else "")
        )
        if rejected:
            print(
                f"{rejected} batch{'es' if rejected != 1 else ''} rejected",
                file=sys.stderr,
            )
        if args.out:
            table_to_csv(result.cleaned, args.out)
    return 1 if rejected else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .server import RepairServer, ServerConfig, SessionManager

    _apply_kernel_choice(args)
    config = ServerConfig(
        workers=args.parallel,
        max_sessions=args.max_sessions,
        max_resident=args.max_resident,
        max_tenant_sessions=args.max_tenant_sessions,
        state_dir=args.state_dir,
        journal_fsync_every=args.journal_fsync,
        snapshot_every=args.snapshot_every,
        journal_max_bytes=args.journal_max_bytes,
        journal_keep=args.journal_keep,
        solve_timeout_s=args.solve_timeout,
        unit_cost_s=args.unit_cost,
    )
    if args.max_tenant_bytes is not None:
        config.max_tenant_bytes = args.max_tenant_bytes
    recorder = _recorder_for(args)
    server = RepairServer(SessionManager(config, recorder=recorder))

    async def run() -> None:
        # SIGTERM/SIGINT drain gracefully: finish in-flight ops, flush
        # the journal and trace, exit 0 — so a supervisor's stop never
        # loses acknowledged work.
        server.install_signal_handlers()
        if args.stdio:
            await server.serve_stdio()
        else:
            port = await server.serve_tcp(args.host, args.port)
            print(f"listening on {args.host}:{port}", flush=True)
            await server.wait_closed()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        return 130
    finally:
        # manager.shutdown() already closed it on the clean path;
        # Recorder.close is idempotent, this covers interrupts.
        if recorder is not None:
            recorder.close()
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import os

    from .server import ServerConfig, SessionManager
    from .state import read_state_dir

    state_dir = args.state_dir
    if not os.path.isdir(state_dir):
        print(f"error: no state directory at {state_dir}", file=sys.stderr)
        return 2
    if args.dry_run:
        reading = read_state_dir(state_dir)
    else:
        # Real recovery: the daemon's own boot path, offline — construct
        # a manager on the state dir (snapshot load + journal replay +
        # fresh compaction), report the reading it acted on, then shut
        # it down cleanly.
        manager = SessionManager(ServerConfig(workers=0, state_dir=state_dir))
        reading, stats = manager.recovery, manager.stats()
        manager.shutdown()
        result = {key: stats[key] for key in (
            "recovered_sessions", "replayed_ops", "errors",
            "dropped_cache_entries", "unreplayed_journal_lines",
            "unreadable_snapshot", "damaged_journal")}
        result["compacted"] = True
    snapshot = reading.snapshot
    tail_ops: dict = {}
    for record in reading.tail:
        op = str(record.get("op"))
        tail_ops[op] = tail_ops.get(op, 0) + 1
    report: dict = {
        "state_dir": state_dir,
        "snapshot": None,
        "journal": {
            "chain": reading.chain,
            "records": len(reading.records),
            "last_seq": reading.last_seq,
            "unreplayed_lines": reading.unreplayed,
            "damaged": reading.damaged,
        },
        "replay": {
            "ops": len(reading.tail),
            "by_op": dict(sorted(tail_ops.items())),
            "sessions_touched": len({
                (str(r.get("tenant") or ""), str(r.get("session") or ""))
                for r in reading.tail
            }),
            # Solver work happens only on repair and assess replays;
            # append/delete/open are index maintenance — the honest
            # cost breakdown.
            "solver_ops": tail_ops.get("repair", 0)
            + tail_ops.get("assess", 0),
        },
    }
    if reading.unreadable is not None:
        report["snapshot"] = {"path": reading.snapshot_path,
                              "unreadable": reading.unreadable}
    elif snapshot is not None:
        report["snapshot"] = {
            "path": reading.snapshot_path,
            "age_s": reading.age_s,
            "journal_seq": reading.journal_seq,
            "version": reading.version,
            "migration_drops": reading.migration_drops,
            "sessions": len(snapshot["sessions"]),
            "cached_solutions": reading.cached_solutions,
            "supervision": snapshot.get("supervision") or {},
        }
    if not args.dry_run:
        if args.json:
            print(json.dumps({**report, "recovery": result},
                             indent=2, sort_keys=True))
            return 0 if not result["errors"] else 1
        errors, dropped = result["errors"], result["dropped_cache_entries"]
        moved = result["unreadable_snapshot"]
        print(
            f"recovered {result['recovered_sessions']} sessions, replayed "
            f"{result['replayed_ops']} ops"
            + (f" ({errors} errors)" if errors else "")
            + (f", dropped {dropped} cache entries that cannot be "
               "re-keyed" if dropped else "")
            + (f", moved the unreadable snapshot to {moved['path']}"
               if moved else "")
            + (f", set {result['unreplayed_journal_lines']} unreplayed "
               "journal line(s) aside in "
               + ", ".join(result["damaged_journal"])
               if result["damaged_journal"] else "")
            + "; state compacted"
        )
        return 0 if not errors else 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if reading.unreadable is not None:
        print(f"snapshot: unreadable ({reading.unreadable}); recovery "
              "would move it aside and replay the full chain")
    elif snapshot is None:
        print("snapshot: none (recovery would replay the full chain)")
    else:
        snap = report["snapshot"]
        print(
            f"snapshot: {snap['sessions']} sessions, "
            f"{snap['cached_solutions']} cached solutions, "
            f"seq {reading.journal_seq}, format version {snap['version']}"
            + (f", {snap['age_s']:.0f}s old"
               if snap["age_s"] is not None else "")
        )
        if reading.migration_drops:
            print(f"migration drops {reading.migration_drops} cache "
                  "entries that cannot be carried to the current format")
        worn = ", ".join(
            f"{k}={v}" for k, v in sorted(snap["supervision"].items()) if v
        )
        if worn:
            print(f"lifetime supervision: {worn}")
    chain = reading.chain
    print(
        f"journal chain: {len(chain)} segment"
        f"{'s' if len(chain) != 1 else ''} "
        f"({len(reading.records)} records, last seq {reading.last_seq})"
    )
    for segment in chain:
        print(f"  {segment}")
    if reading.unreplayed:
        print(f"  journal damaged: {reading.unreplayed} line(s) from the "
              "first undecodable one on would not be replayed; recovery "
              "would set aside " + ", ".join(reading.damaged))
    replay = report["replay"]
    if replay["ops"]:
        mix = ", ".join(f"{op}×{n}" for op, n in sorted(tail_ops.items()))
        print(
            f"replay estimate: {replay['ops']} ops past the snapshot "
            f"({mix}) across {replay['sessions_touched']} sessions, "
            f"{replay['solver_ops']} with solver work"
        )
    else:
        print("replay estimate: nothing to replay (snapshot is current)")
    return 0


def _read_trace_or_fail(path: str):
    from . import obs

    try:
        return obs.read_trace(path)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return None


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import obs

    records = _read_trace_or_fail(args.path)
    if records is None:
        return 2
    summary = obs.summarize_trace(records)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    phases = summary["phases"]
    if phases:
        print("phase breakdown:")
        for phase, row in phases.items():
            print(
                f"  {phase:<10} {row['total_s']:>10.4f} s "
                f"({100 * row['share']:5.1f}%)  ×{row['count']}"
            )
    methods = summary["methods"]
    if methods:
        print(f"solves: {summary['solves']}")
        for method, row in sorted(methods.items()):
            line = (
                f"  {method:<12} ×{row['solves']:<5} "
                f"{row['actual_s']:.4f} s total, max {row['max_s']:.4f} s"
            )
            if row["predicted_pairs"]:
                line += (
                    f", predicted {row['predicted_s']:.4f} s over "
                    f"{row['predicted_pairs']} scheduled"
                )
            if row["budget_exhausted"]:
                line += f", {row['budget_exhausted']} budget-exhausted"
            print(line)
    tenants = summary["tenants"]
    if tenants:
        print("tenants:")
        for tenant, row in sorted(tenants.items()):
            print(
                f"  {tenant:<16} {row['ops']} ops, {row['total_s']:.4f} s"
            )
    ops = summary["ops"]
    if ops:
        print("ops:")
        for op, row in sorted(ops.items()):
            line = f"  {op:<10} ×{row['count']:<5} {row['total_s']:.4f} s"
            if row["errors"]:
                line += f", {row['errors']} errors"
            print(line)
    if not (phases or methods or tenants or ops):
        print("trace contains no span, solve, or op records")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from . import obs

    records = _read_trace_or_fail(args.path)
    if records is None:
        return 2
    report = obs.calibrate_trace(records, fit_exponent=args.fit_exponent)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if not report["pairs"]:
        print(
            "no calibratable solve records (need exact solves with "
            "positive predicted difficulty and measured seconds — run "
            "with --trace and a global --exact-budget)"
        )
        return 0
    print(f"training pairs: {report['pairs']} exact solves")
    print(
        f"hand-calibrated unit cost: {report['hand_unit_cost_s']:.3g} s "
        f"(mean relative error {report['hand_mean_rel_error']:.3f})"
    )
    print(
        f"fitted unit cost:          {report['unit_cost_s']:.3g} s "
        f"(mean relative error {report['mean_rel_error']:.3f})"
    )
    if "exponent" in report:
        print(
            f"fitted exponent model:     "
            f"{report['exponent_unit_cost_s']:.3g} s · difficulty^"
            f"{report['exponent']:.3f} "
            f"(mean relative error {report['exponent_mean_rel_error']:.3f})"
        )
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "assess": _cmd_assess,
    "s-repair": _cmd_s_repair,
    "u-repair": _cmd_u_repair,
    "mpd": _cmd_mpd,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "recover": _cmd_recover,
    "trace": _cmd_trace,
    "calibrate": _cmd_calibrate,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_policy_args(args)
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExactBudgetExceeded as exc:
        # --guarantee optimal under --exact-budget: "provably optimal
        # or fail", and this is the failure.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
