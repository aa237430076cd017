"""Deterministic fault injection for chaos tests and CI smokes.

The fault-tolerance layer (supervised worker pool, crash-safe daemon
journal) is only trustworthy if its failure paths are *exercised* — and
exercising them with ``monkeypatch`` or ad-hoc ``os.kill`` calls from
tests couples the tests to internals and races against schedulers.  This
module gives every failure path a **named site** and lets a test (or the
CI chaos smoke) declare, up front and reproducibly, exactly which hits
of which sites misbehave:

``FaultPlan``
    An ordered list of :class:`FaultRule`\\ s.  Each rule names a *site*
    (see :data:`SITES`), an *action* (``kill``/``raise``/``delay``/
    ``drop``), which matching hit fires it (``at``, 1-based, counted
    per plan instance — i.e. per process), and optional equality
    constraints on the site's context (``match``), e.g. a worker index
    or generation.

Sites fire through :meth:`FaultPlan.fire`, which is a no-op attribute
check for the empty plan — production code pays one ``if`` per site.
Plans serialise to JSON (``to_spec``/``from_spec``) so they cross
process boundaries two ways: explicitly, as a constructor/worker
argument, and ambiently, through the ``FDREPAIR_FAULTS`` environment
variable (how the CI smoke injects faults into a daemon subprocess it
only controls via ``Popen``).

Worker processes rebuild their plan from the spec with fresh hit
counters, so "kill worker 1 at its 3rd solve" is deterministic per
*incarnation*: a rule matched on ``{"worker": 1, "generation": 0}``
kills the original process and spares the supervisor's replacement
(which runs at generation 1).

Named sites (context keys in parentheses):

- ``worker.recv`` (worker, generation, msg, op) — in a pool worker,
  per incoming message before it is handled.  The ops are ``solve``
  and ``stop``, so a worker's *n*-th message is its *n*-th solve until
  it is stopped.  ``kill`` crashes the worker ("kill worker 1 at its
  3rd message"), ``drop`` swallows the message, ``raise`` answers a
  solve with an error, ``delay`` stalls the worker.
- ``worker.solve`` (worker, generation, solve, key, method) — in a pool
  worker, before executing a solve request.  ``kill`` exits the process
  with :data:`KILL_EXIT_CODE`; ``raise`` surfaces as a worker-side solve
  error; ``delay`` stalls the solve (drives per-solve deadlines).
- ``pool.dispatch`` (worker, generation, op, seq) — in the parent,
  before a solve is sent to a worker (``op`` is always ``solve``).
  ``drop`` loses it (the solve recovers by its deadline); ``delay``
  stalls the send.
- ``server.op`` (op, tenant, session) — in the daemon, at the op
  boundary before a session op executes.  ``raise`` turns into an error
  reply; the session and daemon survive.
- ``journal.append.before`` / ``journal.append.after`` (op) — around an
  op-journal append.  ``kill`` simulates a crash exactly before/after
  the write reaches the log, the two cases recovery must distinguish.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = [
    "FAULTS_ENV",
    "KILL_EXIT_CODE",
    "SITES",
    "FaultInjected",
    "FaultRule",
    "FaultPlan",
    "NULL_PLAN",
    "resolve",
]

#: Environment variable holding a JSON ``FaultPlan`` spec.
FAULTS_ENV = "FDREPAIR_FAULTS"

#: Exit code of a process killed by a ``kill`` action — distinguishable
#: from clean exits and from signal deaths in tests and smokes.
KILL_EXIT_CODE = 47

#: Documented injection sites -> the context keys they fire with.
SITES: Dict[str, tuple] = {
    "worker.recv": ("worker", "generation", "msg", "op"),
    "worker.solve": ("worker", "generation", "solve", "key", "method"),
    "pool.dispatch": ("worker", "generation", "op", "seq"),
    "server.op": ("op", "tenant", "session"),
    "journal.append.before": ("op",),
    "journal.append.after": ("op",),
}

_ACTIONS = ("kill", "raise", "delay", "drop")


class FaultInjected(RuntimeError):
    """Raised by a ``raise`` action at an injection site."""


class FaultRule:
    """One deterministic misbehaviour: *action* at the *at*-th matching
    hit of *site* (then for ``times - 1`` further hits)."""

    __slots__ = ("site", "action", "at", "times", "delay_s", "match", "hits")

    def __init__(self, site: str, action: str, *, at: int = 1,
                 times: int = 1, delay_s: float = 0.0,
                 match: Optional[Mapping[str, object]] = None):
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}")
        if action not in _ACTIONS:
            raise ValueError(f"unknown fault action {action!r}")
        self.site = str(site)
        self.action = action
        self.at = max(1, int(at))
        self.times = max(1, int(times))
        self.delay_s = float(delay_s)
        self.match = dict(match or {})
        self.hits = 0

    def to_spec(self) -> Dict[str, object]:
        spec: Dict[str, object] = {"site": self.site, "action": self.action}
        if self.at != 1:
            spec["at"] = self.at
        if self.times != 1:
            spec["times"] = self.times
        if self.delay_s:
            spec["delay_s"] = self.delay_s
        if self.match:
            spec["match"] = dict(self.match)
        return spec

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "FaultRule":
        return cls(
            spec["site"], spec["action"],
            at=spec.get("at", 1), times=spec.get("times", 1),
            delay_s=spec.get("delay_s", 0.0), match=spec.get("match"),
        )

    def describe(self) -> str:
        cond = "".join(f" {k}={v}" for k, v in sorted(self.match.items()))
        return f"{self.action}@{self.site}[{self.at}]{cond}"


class FaultPlan:
    """A set of :class:`FaultRule`\\ s with per-instance hit counters.

    ``fire`` is thread-safe (parent-side sites fire from session threads
    and the pool collector concurrently) and returns ``"drop"`` when a
    drop rule fired — the only action the *call site* must interpret;
    ``kill``/``raise``/``delay`` take effect inside ``fire`` itself.
    """

    def __init__(self, rules: Iterable[FaultRule] = ()):  # empty = no-op
        self._rules: List[FaultRule] = list(rules)
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return bool(self._rules)

    def fire(self, site: str, **ctx) -> Optional[str]:
        if not self._rules:
            return None
        verdict = None
        fired: List[FaultRule] = []
        with self._lock:
            for rule in self._rules:
                if rule.site != site:
                    continue
                if any(ctx.get(k) != v for k, v in rule.match.items()):
                    continue
                rule.hits += 1
                if rule.at <= rule.hits < rule.at + rule.times:
                    fired.append(rule)
        for rule in fired:  # act outside the lock: actions may block
            if rule.action == "kill":
                os._exit(KILL_EXIT_CODE)
            elif rule.action == "raise":
                raise FaultInjected(
                    f"injected fault at {site}: {rule.describe()}"
                )
            elif rule.action == "delay":
                time.sleep(rule.delay_s)
            elif rule.action == "drop":
                verdict = "drop"
        return verdict

    # ------------------------------------------------------------------
    # Serialisation (constructor args, env var, worker spawn args)
    # ------------------------------------------------------------------
    def to_spec(self) -> List[Dict[str, object]]:
        return [rule.to_spec() for rule in self._rules]

    @classmethod
    def from_spec(cls, spec) -> "FaultPlan":
        if not spec:
            return cls()
        if isinstance(spec, str):
            spec = json.loads(spec)
        return cls(FaultRule.from_spec(item) for item in spec)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "FaultPlan":
        raw = (os.environ if environ is None else environ).get(FAULTS_ENV)
        if not raw:
            return cls()
        return cls.from_spec(raw)


#: Shared no-op plan ``resolve(None)`` falls back to when the
#: environment declares no faults.
NULL_PLAN = FaultPlan()


def resolve(plan: Optional[FaultPlan]) -> FaultPlan:
    """Normalise a constructor's ``faults`` argument: an explicit plan
    wins; ``None`` consults :data:`FAULTS_ENV` (fresh counters per
    resolving component); no env var means the shared no-op."""
    if plan is not None:
        return plan
    env_plan = FaultPlan.from_env()
    return env_plan if env_plan.enabled else NULL_PLAN
