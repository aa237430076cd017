"""The repair daemon's JSONL wire protocol, shared with ``fdrepair stream``.

One request per line, one JSON object per request, one JSON response
line per request — the same framing ``fdrepair stream`` reads from its
batches file, extended with addressing.  The op vocabulary is the stream
vocabulary plus session lifecycle:

=============  =====================================================
op             payload
=============  =====================================================
``open``       ``schema`` (attribute list) **or** ``rows``/CSV-shaped
               seed content, ``fds`` (FD set string), optional solver
               knobs (``guarantee``, ``exact_threshold``,
               ``exact_budget_s``, ``node_limit``, ``unit_cost_s``;
               a malformed knob fails the ``open``)
``append``     ``rows`` (value lists or attribute-keyed objects),
               optional ``weights``, ``ids``, ``repair: false``
``delete``     ``ids``, optional ``repair: false``
``repair``     —
``assess``     — (dirtiness report of the current state; served from
               the session's component cache where possible)
``status``     — (solver-free: the delta-maintained bracket)
``close``      — (drop the session, freeing its resources)
=============  =====================================================

Daemon-level ops: ``ping``, ``stats`` (manager counters), ``shutdown``.

Every request carries ``tenant`` and — for session ops — ``session``;
the pair addresses one :class:`~repro.session.RepairSession`.  Responses
echo ``tenant``/``session``/``seq`` (an opaque client correlation value)
and carry ``ok: true`` plus op-specific fields, or ``ok: false`` plus
``error``.  Requests for one session execute in arrival order
(per-session sequencing); requests for different sessions interleave
freely — that, not this module, is the server's job.  This module is
deliberately transport-free: pure functions from decoded requests to
response dicts, so the asyncio server and the synchronous CLI stream
drive the *same* op execution and can never drift apart.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Optional, Tuple

from .pipeline import CleaningResult

__all__ = [
    "DAEMON_OPS",
    "JOURNALED_OPS",
    "ProtocolError",
    "Request",
    "SESSION_OPS",
    "apply_session_op",
    "decode_line",
    "encode",
    "result_summary",
]

#: Ops that address one open session (require ``tenant`` + ``session``).
SESSION_OPS = frozenset(
    {"append", "delete", "repair", "assess", "status", "close"}
)

#: Ops handled by the daemon itself, no session address needed.
DAEMON_OPS = frozenset({"ping", "stats", "shutdown"})

#: Ops valid on the wire: session lifecycle + session ops + daemon ops.
ALL_OPS = frozenset({"open"}) | SESSION_OPS | DAEMON_OPS

#: Ops the crash-safe daemon writes to its op journal: exactly the ops
#: that change session state (including ``repair`` and ``assess``, which
#: is served by a repair and so moves the session's stats, cache
#: counters and last result).  Sessions are deterministic, so replaying
#: this subset in acknowledged order rebuilds every session
#: byte-identically; ``status`` and daemon ops never touch the log.
JOURNALED_OPS = frozenset(
    {"open", "append", "delete", "repair", "assess", "close"}
)


class ProtocolError(ValueError):
    """A malformed request: bad JSON, unknown op, or a payload the op
    cannot execute.  Always addressable to one request line, never
    fatal to the connection — the daemon (and the resilient stream
    loop) reports it and moves on."""


def decode_line(line: str) -> Dict[str, object]:
    """Parse one request line into a dict, or raise :class:`ProtocolError`."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def encode(obj: Mapping[str, object]) -> str:
    """One response as a compact JSON line (trailing newline included)."""
    return json.dumps(obj, separators=(",", ":"), default=str) + "\n"


class Request:
    """One validated request: op + addressing + payload.

    Validation here covers the *envelope* (op known, addressing present
    and string-typed); payload validation is the op executor's job —
    :func:`apply_session_op` turns payload problems into
    :class:`ProtocolError` uniformly for both transports.
    """

    __slots__ = ("op", "tenant", "session", "seq", "payload")

    def __init__(self, raw: Mapping[str, object]) -> None:
        op = raw.get("op")
        if not isinstance(op, str):
            raise ProtocolError("missing op")
        if op not in ALL_OPS:
            raise ProtocolError(f"unknown op {op!r}")
        self.op = op
        tenant = raw.get("tenant")
        session = raw.get("session")
        if op in DAEMON_OPS:
            self.tenant = tenant if isinstance(tenant, str) else None
            self.session = None
        else:
            if not isinstance(tenant, str) or not tenant:
                raise ProtocolError(f"op {op!r} needs a tenant")
            if not isinstance(session, str) or not session:
                raise ProtocolError(f"op {op!r} needs a session")
            self.tenant = tenant
            self.session = session
        self.seq = raw.get("seq")
        self.payload = {
            k: v
            for k, v in raw.items()
            if k not in ("op", "tenant", "session", "seq")
        }

    @property
    def key(self) -> Optional[Tuple[str, str]]:
        """The ``(tenant, session)`` address, or ``None`` for daemon ops."""
        if self.session is None:
            return None
        return (self.tenant, self.session)

    def reply(self, **fields) -> Dict[str, object]:
        """A response envelope echoing this request's addressing."""
        out: Dict[str, object] = {"ok": True, "op": self.op}
        if self.tenant is not None:
            out["tenant"] = self.tenant
        if self.session is not None:
            out["session"] = self.session
        if self.seq is not None:
            out["seq"] = self.seq
        out.update(fields)
        return out

    def error(self, message: str) -> Dict[str, object]:
        out = self.reply(error=message)
        out["ok"] = False
        return out


def result_summary(
    result: CleaningResult, table=None
) -> Dict[str, object]:
    """The JSON-able slice of a :class:`~repro.pipeline.CleaningResult`.

    Kept rows stay server-side (tables can be huge); clients read the
    repair's provenance — distance, method, guarantee — and fetch
    content by other means if they need it.  ``deleted_ids`` is the
    exception (emitted when the pre-repair *table* is given): the delta
    a client must apply to its own copy is exactly the deleted set,
    which is bounded by the dirtiness, not the table size.
    """
    report = result.report
    out = {
        "distance": result.distance,
        "method": result.method,
        "optimal": result.optimal,
        "ratio_bound": result.ratio_bound,
        "tuples": report.total_tuples,
        "conflicts": report.conflict_count,
        "components": result.component_count,
    }
    if table is not None:
        kept = set(result.cleaned.ids())
        out["deleted_ids"] = [
            tid for tid in table.ids() if tid not in kept
        ]
    return out


def _report_summary(report) -> Dict[str, object]:
    return {
        "tuples": report.total_tuples,
        "total_weight": report.total_weight,
        "conflicts": report.conflict_count,
        "conflicting_tuples": report.conflicting_tuples,
        "components": report.component_count,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "complexity": report.complexity,
        "consistent": report.consistent,
    }


def apply_session_op(session, op: str, payload: Mapping[str, object]):
    """Execute one session op against a live ``RepairSession``.

    Returns the op's response fields (a dict).  Anything wrong with the
    payload — missing keys, wrong shapes, unknown ids, bad weights —
    surfaces as :class:`ProtocolError`, so both transports (asyncio
    daemon, CLI stream loop) diagnose identically and neither ever sees
    a session half-mutated: the session's own append/delete validate
    before the first mutation.

    ``close`` is not handled here — dropping a session is bookkeeping
    owned by the caller (the manager's registry, the stream's loop).
    """
    try:
        if op == "append":
            rows = payload.get("rows", [])
            if not isinstance(rows, (list, tuple)):
                raise ProtocolError("append rows must be a list")
            result = session.append(
                rows,
                weights=payload.get("weights"),
                ids=payload.get("ids"),
                repair=bool(payload.get("repair", True)),
            )
            fields = {"applied": len(rows)}
            if result is not None:
                fields.update(result_summary(result))
            return fields
        if op == "delete":
            ids = payload.get("ids", [])
            if not isinstance(ids, (list, tuple)):
                raise ProtocolError("delete ids must be a list")
            result = session.delete(
                ids, repair=bool(payload.get("repair", True))
            )
            fields = {"applied": len(ids)}
            if result is not None:
                fields.update(result_summary(result))
            return fields
        if op == "repair":
            return result_summary(session.repair())
        if op == "assess":
            return _report_summary(session.repair().report)
        if op == "status":
            return session.status().as_dict()
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # The session validates payload *content* (arity, weights, ids);
        # re-badge its diagnostics as protocol errors so transports
        # handle one exception type.
        raise ProtocolError(str(exc)) from None
    raise ProtocolError(f"op {op!r} is not a session op")
