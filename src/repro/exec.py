"""Execution layer: solve conflict components, here or on workers.

:mod:`repro.core.decompose` splits an instance into independent conflict
components; this module solves them — serially in the caller's process,
or on a supervised :class:`PersistentWorkerPool` — and merges the
results in deterministic table order.  The two are deliberately separate
layers: decomposition is pure conflict math, execution is scheduling.
:func:`_solve_component` is the one place a portfolio method name (S or
U) becomes a solver call, wherever the solve runs.

Determinism contract
--------------------
Serial and pooled execution produce *identical* repairs: results are
reassembled in task order, every solver is a pure function of its
component, merge order is canonical table order, and the fresh labelled
nulls a U-repair component may introduce are relabelled per component
by the parent (``⊥c<ordinal>.<k>`` in changed-cell order), so even the
serialised form is byte-identical however the components were
scheduled.  A worker-side rebuild of a component's
:class:`~repro.core.conflict_index.ConflictIndex` is equivalent to the
parent's projected sub-index (pinned by the PR-1 index properties), so
shipping plain rows across the process boundary is safe.

Workers are processes (the solvers are CPU-bound Python) in a pool the
caller builds and closes.  Each solve carries its component's rows, so
workers keep no state between solves.  A batch starts a pool not yet
running only when more than one component asks for it; a streaming
session starts it for its first miss.  Environments without working
subprocess support degrade to the serial path rather than failing.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain
from time import monotonic as _monotonic
from time import perf_counter as _perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import faults as _faults
from . import obs as _obs
from .core import kernel as _kernel
from .core.decompose import (
    DEFAULT_NODE_LIMIT,
    ComponentPlan,
    Decomposition,
    SolvePolicy,
)
from .core.fd import FDSet
from .core.table import Table, _DeferredTable

__all__ = [
    "solve_components",
    "assemble_s_result",
    "PersistentWorkerPool",
    "U_METHODS",
]

#: Display name and proven ratio bound per portfolio method.
S_METHOD_NAMES = {
    "dichotomy": "OptSRepair",
    "exact": "exact-vertex-cover",
    "approx": "bar-yehuda-even",
    "greedy": "greedy-degree",
}
S_METHOD_RATIOS = {
    "dichotomy": 1.0,
    "exact": 1.0,
    "approx": 2.0,
    "greedy": float("inf"),
}

#: U-repair portfolio methods: the ``(allow_exact_search, exact_budget)``
#: pair each runs the Section 4 dispatcher with — ``clean(strategy=
#: "updates")`` under the ``"best"``, ``"fast"`` and ``"optimal"``
#: guarantees.  U methods never degrade: a U solve that keeps killing
#: workers fails its call, and the caller solves it locally.
U_METHODS = {
    "u-best": (True, 50_000),
    "u-fast": (False, 50_000),
    "u-optimal": (True, 500_000),
}


# ---------------------------------------------------------------------------
# Persistent worker pool: one supervisor over queue-fed worker slots
# ---------------------------------------------------------------------------

#: Supervisor tick: how often the monitor reaps exited workers, sweeps
#: solve deadlines, runs due respawns and re-sends requeued solves.
#: Results never wait for it — a reply wakes its caller by notify.
_TICK_S = 0.05

#: How often an idle worker checks that its parent is still alive (an
#: orphaned worker exits within this interval).
_ORPHAN_CHECK_S = 0.5

#: Solves sent ahead to one worker: two keep it busy across the reply
#: round trip; the rest wait in the parent for whichever worker frees.
_INFLIGHT_PER_WORKER = 2


def _worker_loop(recv, send, worker: int, generation: int,
                 fault_spec=None) -> None:
    """The loop every pool worker runs.

    A worker keeps no state between messages: each solve carries its
    component whole — schema, Δ, node limit, and the component
    sub-table's ``rows``/``weights`` dicts in component order, exactly
    what the serial path solves — so solves are byte-identical wherever
    they run, and any worker, a fresh replacement included, can serve
    any solve.

    Messages are tuples — ``("solve", seq, key, schema, fds,
    node_limit, rows, weights, method, budget_s)`` and ``("stop",)`` —
    and *recv* returns ``None`` at end of input.  Every solve is
    answered with ``(seq, result, method, seconds, error)``, *result*
    as :func:`_solve_component` returns it and *error* ``None`` or the
    text of the solve's failure (the caller sees it).  Failures are
    shipped back; they never end the loop.

    The fault plan is rebuilt per process, so a rule matched on
    ``worker``/``generation`` hits exactly one incarnation:
    ``worker.recv`` fires per message, ``worker.solve`` per solve.
    """
    plan = _faults.FaultPlan.from_spec(fault_spec)
    received = solves = 0
    while True:
        message = recv()
        if message is None:
            return
        kind = message[0]
        received += 1
        try:
            if plan.fire("worker.recv", worker=worker, generation=generation,
                         msg=received, op=kind) == "drop":
                continue  # swallowed: the parent's deadline recovers it
        except _faults.FaultInjected as exc:
            if kind == "solve":
                send((message[1], None, None, 0.0, repr(exc)))
            continue
        if kind == "stop":
            return
        if kind == "solve":
            solves += 1
            send(_worker_solve(message, plan, worker, generation, solves))


def _worker_solve(message, plan, worker, generation, solves):
    (_kind, seq, key, schema, fds, node_limit, rows, weights, method,
     budget) = message
    try:
        # Inside the try: a ``raise`` action ships as a solve error
        # (like any solver exception), a ``kill`` action exits the
        # process outright.
        plan.fire("worker.solve", worker=worker, generation=generation,
                  solve=solves, key=key, method=method)
        subtable = Table(schema, rows, weights)
        start = _perf_counter()
        result, effective = _solve_component(
            subtable, fds, method, node_limit, budget_s=budget
        )
        return (seq, result, effective, _perf_counter() - start, None)
    except Exception as exc:  # ship the failure, don't die
        return (seq, None, None, 0.0, repr(exc))


def _retire_queue(queue) -> None:
    """Drain *queue* and detach its feeder thread, so neither a dead
    reader nor interpreter teardown can block on it."""
    try:
        while True:
            queue.get_nowait()
    except Exception:
        pass
    try:
        queue.cancel_join_thread()
        queue.close()
    except Exception:
        pass


def _queue_worker_main(inq, out, use_kernel, worker, generation,
                       fault_spec) -> None:
    """Process entry of a pool worker.  The kernel choice and the fault
    plan travel as arguments: under spawn/forkserver start methods the
    worker re-imports this module with both at defaults.

    The worker holds both ends of its queue's pipe, so a parent killed
    outright never sends it EOF; it therefore waits in bounded slices
    and exits once its parent process is gone."""
    import gc
    import multiprocessing as mp
    from queue import Empty

    # A forked worker inherits the parent's whole heap (tables, indexes):
    # freezing it keeps the worker's collections from walking — and so
    # copying — those pages.
    gc.freeze()
    _kernel.set_enabled(use_kernel)
    parent = mp.parent_process()

    def recv():
        while True:
            try:
                return inq.get(timeout=_ORPHAN_CHECK_S)
            except Empty:
                if parent is not None and not parent.is_alive():
                    return None

    _worker_loop(recv, out.send, worker, generation, fault_spec)


class _QueueSlot:
    """One pool worker: a ``multiprocessing`` process fed by its own
    queue, answering over its own pipe, which a thread reads and hands
    each reply to the supervisor.

    Replies never share a queue across workers: a ``multiprocessing``
    queue's write lock is shared by its writers, so a worker killed
    while holding it would silence every other worker."""

    def __init__(self, on_reply, use_kernel, worker, generation,
                 fault_spec):
        import multiprocessing as mp
        import threading

        ctx = mp.get_context()
        self.inq = ctx.Queue()
        self._replies, out = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_queue_worker_main,
            args=(self.inq, out, use_kernel, worker, generation,
                  fault_spec),
            daemon=True,
        )
        self.proc.start()
        out.close()  # the worker holds the only write end: EOF at its exit
        self._on_reply = on_reply
        threading.Thread(
            target=self._read, name=f"fdrepair-worker-{worker}-reader",
            daemon=True,
        ).start()

    def _read(self) -> None:
        try:
            while True:
                self._on_reply(self._replies.recv())
        except (EOFError, OSError):
            pass  # the worker exited: the monitor reaps it
        finally:
            self._replies.close()

    def send(self, message) -> bool:
        try:
            self.inq.put(message)
        except (OSError, ValueError):
            return False
        return True

    def alive(self) -> bool:
        return self.proc.is_alive()

    def close(self, grace_s: float) -> None:
        """Wait up to *grace_s* for the process to exit (after a
        ``stop``), then kill it and retire its queue.  SIGKILL, not
        SIGTERM: a worker forked from the daemon inherits the event
        loop's signal wakeup fd, so a SIGTERM it received would reach
        the daemon as a shutdown request."""
        try:
            self.proc.join(timeout=grace_s)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=0.5)
        except (OSError, ValueError, AssertionError):
            pass
        _retire_queue(self.inq)


class _Call:
    """One ``solve`` call: what its solves share (Δ, node limit, label),
    how many are outstanding, and those handed back to the caller's
    thread (local degradation)."""

    __slots__ = ("fds", "node_limit", "key", "remaining", "local")

    def __init__(self, fds, node_limit, key, count: int):
        self.fds = fds
        self.node_limit = node_limit
        self.key = key
        self.remaining = count
        self.local: List["_Task"] = []


class _Task:
    """Parent-side record of one solve: its component sub-table, routing,
    retry and degradation state, and the outcome."""

    __slots__ = ("call", "table", "method", "budget", "seq", "slot",
                 "sent_at", "not_before", "misses", "deaths", "degraded",
                 "local", "done", "result", "error")

    def __init__(self, call, table, method, budget, seq):
        self.call = call
        self.table = table
        self.method = method
        self.budget = budget
        self.seq = seq            # identity of this exact solve
        self.slot = None          # routed worker slot (None = queued)
        self.sent_at = None       # monotonic send time (deadline sweep)
        self.not_before = 0.0     # backoff gate for the next send
        self.misses = 0           # deadline misses since the last failover
        self.deaths = 0           # worker deaths suffered at this method
        self.degraded = False     # already fell to the approximation tier
        self.local = False        # handed to the caller's thread
        self.done = False
        self.result = None        # (result, effective method, seconds)
        self.error = None


class PersistentWorkerPool:
    """Supervised worker processes: the one way a component is solved
    off-process.

    A solve request is self-contained — the component's sub-table rows
    and weights, Δ, node limit, method and ``budget_s`` — so workers
    keep no per-session state, and any number of sessions and batch
    calls share one pool without registering with it.  Solvers are pure
    functions of component content, so *where* a solve runs — which
    worker, after how many retries — never changes its answer.

    **Workers.**  Each worker is a ``multiprocessing`` process fed by its
    own queue and answering over its own pipe (:class:`_QueueSlot`),
    running :func:`_worker_loop`; ``--parallel N`` is how the CLI and
    the daemon start them.  The caller builds the pool and closes it;
    nothing in :func:`solve_components`, :func:`repro.pipeline.clean` or
    a :class:`~repro.session.RepairSession` starts one of its own.  The
    workers solve with the kernel choice in force
    (:func:`repro.core.kernel.enabled`) when the pool is constructed.

    **Concurrency.**  ``solve`` is thread-safe; solves route round-robin
    to live workers with spare capacity (see :meth:`_route_locked`), and
    a reply wakes its waiting caller by notify, so concurrent sessions
    interleave freely.

    **Supervision.**  One policy, per task:

    - A worker counts as dead when its process exits.  Its in-flight
      solves are sent again; a solve degrades from ``exact`` or
      ``dichotomy`` to ``approx`` only after more than *retries* deaths
      (reported in method mixes, like budget exhaustion), and any other
      solve (approximate, or a U-repair method) that keeps killing
      workers fails its call.
    - With *solve_timeout_s*, a solve past its deadline is sent again
      with capped exponential backoff; after *retries* misses its
      worker is presumed wedged and failed over.  A lost message
      therefore never changes an answer.  Without a deadline a long
      solve is never shot.
    - A dead slot respawns after capped exponential backoff
      (*backoff_s*, *backoff_cap_s*) and rejoins the rotation at once:
      there is no state to replay.  A slot is abandoned after
      *max_respawns* respawns.
    - With no worker live and no respawn booked, solves run in the
      caller's thread from the task's own rows (``degraded_local``);
      the pool stays alive.

    Counters — ``worker_deaths``, ``respawns``, ``retries``,
    ``timeouts``, ``degraded``, ``degraded_local``, ``abandoned``,
    ``rpcs`` (solves sent) — come from :meth:`supervision_stats` and,
    as ``pool.*`` counters, the pool's own optional *recorder* (a
    pool handed to ``clean`` reports to the recorder it was built with,
    not to the call's).  ``solve`` raises ``RuntimeError`` only when the
    pool is closed, the batch *timeout* expires, or a solve itself
    failed; callers then solve serially.  ``start`` returns ``False`` on
    platforms that cannot run the workers.

    **Fault injection.**  The parent fires ``pool.dispatch`` before each
    solve it sends a worker; workers fire ``worker.recv`` per message
    and ``worker.solve`` per solve (see :mod:`repro.faults`).  *faults*
    defaults to the plan named by ``FDREPAIR_FAULTS``.
    """

    def __init__(self, workers: int, *,
                 retries: int = 2,
                 max_respawns: int = 8,
                 backoff_s: float = 0.05,
                 backoff_cap_s: float = 2.0,
                 solve_timeout_s: Optional[float] = None,
                 faults=None,
                 recorder=None):
        import threading

        self._worker_count = max(1, int(workers))
        self._use_kernel = _kernel.enabled()
        self._retries = max(0, int(retries))
        self._max_respawns = max(0, int(max_respawns))
        self._backoff_s = max(0.0, float(backoff_s))
        self._backoff_cap_s = max(self._backoff_s, float(backoff_cap_s))
        self._solve_timeout_s = solve_timeout_s
        self._faults = _faults.resolve(faults)
        self._recorder = _obs.resolve(recorder)
        self._started = False
        self._broken = False
        self._closed = False
        self._monitor = None
        self._stop = threading.Event()
        # Lock order: _io (sends, slot installs) before _cond (tasks,
        # slot states, counters); never take _io while holding _cond.
        self._io = threading.Lock()
        self._cond = threading.Condition()
        self._slots: List = []       # current worker handle per slot
        self._gens: List[int] = []   # incarnation number per slot
        self._dead: set = set()      # slots out of rotation
        self._respawn_at: Dict[int, float] = {}   # slot -> due (monotonic)
        self._respawning: set = set()
        self._respawn_attempts: Dict[int, int] = {}
        self._tasks: Dict[int, _Task] = {}      # seq -> unfinished solve
        self._queue: deque = deque()            # solves awaiting a worker
        self._inflight: Dict[int, _Task] = {}   # seq -> solve on a worker
        self._load: List[int] = []              # solves on each slot
        self._next_seq = 0
        self._rr = 0
        self._counters = {
            "worker_deaths": 0, "respawns": 0, "retries": 0,
            "timeouts": 0, "degraded": 0, "degraded_local": 0,
            "abandoned": 0, "rpcs": 0,
        }

    @property
    def alive(self) -> bool:
        return self._started and not self._broken and not self._closed

    @property
    def worker_count(self) -> int:
        return self._worker_count

    def live_workers(self) -> int:
        with self._cond:
            return len(self._slots) - len(self._dead)

    def supervision_stats(self) -> Dict[str, int]:
        """The supervision counters (see the class docstring): the
        honesty channel for chaos tests and the daemon's ``stats`` op."""
        with self._cond:
            return dict(self._counters)

    def start(self) -> bool:
        """Spawn the workers; True on success (idempotent)."""
        if self._started:
            return self.alive
        self._started = True
        import threading

        try:
            for worker in range(self._worker_count):
                self._slots.append(self._spawn(worker, 0))
                self._gens.append(0)
                self._load.append(0)
        except (OSError, PermissionError, ValueError, ImportError):
            self._broken = True
            self._teardown(grace_s=0.0)
            return False
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fdrepair-pool-monitor",
            daemon=True,
        )
        self._monitor.start()
        return self.alive

    def _spawn(self, worker: int, generation: int):
        return _QueueSlot(
            self._on_reply, self._use_kernel, worker, generation,
            self._faults.to_spec() or None,
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _send(self, worker: int, message) -> None:
        """Send one solve to *worker* (caller holds ``_io``); a pipe
        that refuses it fails that worker over."""
        if worker in self._dead:
            return
        faults = self._faults
        if faults.enabled and faults.fire(
            "pool.dispatch", worker=worker, generation=self._gens[worker],
            op=message[0], seq=message[1],
        ) == "drop":
            return  # lost: the solve's deadline recovers it
        if not self._slots[worker].send(message):
            self._fail_slot(worker, "send to worker failed")

    def solve(self, tasks: Sequence[Tuple],
              timeout: Optional[float] = 120.0, *, fds: FDSet,
              node_limit: int = DEFAULT_NODE_LIMIT, key=None
              ) -> List[Tuple[object, str, float]]:
        """Solve ``(component table, method, budget_s)`` tasks under Δ
        *fds* with branch & bound *node_limit*; returns ``(result,
        effective method, solve seconds)`` per task, in task order,
        *result* as :func:`_solve_component` returns it (kept ids for an
        S method).  Each task ships its table's rows and weights whole;
        *key* labels its solves (the ``worker.solve`` fault site's
        ``key``).  *budget_s* is the solve's wall-clock slice from the
        plan (``None``: no ceiling), so pool and serial runs read the
        same plan.  The seconds are
        measured around the solve itself, inside the worker (queueing and
        pickling excluded) — the telemetry layer's predicted-vs-actual
        training signal.

        Worker deaths, lost messages and stalls are survived inside the
        call (see the class docstring).  Raises ``RuntimeError`` when the
        pool is closed, the batch *timeout* expires (``None``: the batch
        has no wall-clock cap), or a solve itself failed; callers fall
        back to the serial path.
        """
        if not self.alive:
            raise RuntimeError("worker pool is not running")
        if not tasks:
            return []
        deadline = None if timeout is None else _monotonic() + timeout
        call = _Call(fds, node_limit, key, len(tasks))
        mine: List[_Task] = []
        with self._cond:
            if self._closed:
                raise RuntimeError("worker pool is not running")
            for table, method, budget_s in tasks:
                record = _Task(call, table, method, budget_s,
                               self._next_seq)
                self._next_seq += 1
                self._tasks[record.seq] = record
                self._queue.append(record)
                mine.append(record)
        failure = None
        try:
            while True:
                with self._cond:
                    sends = self._route_locked()
                    local, call.local = call.local, []
                    if not sends and not local:
                        if not call.remaining:
                            break
                        remaining = None
                        if deadline is not None:
                            remaining = deadline - _monotonic()
                            if remaining <= 0:
                                failure = (
                                    f"worker pool timed out after {timeout:g}s"
                                )
                                break
                        # Replies, deaths and respawns free capacity and
                        # notify, so routing is retried on every wake.
                        self._cond.wait(remaining)
                        continue
                self._send_routed(sends)
                for t in local:
                    self._solve_local(t)
        finally:
            with self._cond:
                for t in mine:  # late replies for these are discarded
                    self._unroute_locked(t)
                    t.done = True
                    self._tasks.pop(t.seq, None)
        if failure is not None:
            raise RuntimeError(failure)
        results = []
        for t in mine:
            if t.error is not None:
                raise RuntimeError(f"worker solve failed: {t.error}")
            results.append(t.result)
        return results

    def _route_locked(self) -> List[Tuple[int, Tuple]]:
        """Route queued solves to live workers with spare capacity,
        round-robin, returning the ``(worker, message)`` sends (caller
        holds ``_cond``).  Capping each worker at
        :data:`_INFLIGHT_PER_WORKER` solves keeps the queue in the
        parent, so a respawned or idle worker takes the next solve
        instead of one survivor inheriting a dead worker's backlog.
        With no worker live and no respawn booked, queued solves go back
        to their callers' threads (local degradation)."""
        queue = self._queue
        if not queue:
            return []
        live = [w for w in range(len(self._slots)) if w not in self._dead]
        if not live and not (self._respawn_at or self._respawning):
            while queue:
                task = queue.popleft()
                if not (task.done or task.local):
                    task.local = True
                    task.call.local.append(task)
            self._cond.notify_all()
            return []
        now = _monotonic()
        load = self._load
        free = [w for w in live if load[w] < _INFLIGHT_PER_WORKER]
        sends, gated = [], []
        while queue and free:
            task = queue.popleft()
            if task.done or task.local or task.slot is not None:
                continue  # a stale queue entry
            if task.not_before > now:
                gated.append(task)  # backing off after a missed deadline
                continue
            worker = free[self._rr % len(free)]
            self._rr += 1
            load[worker] += 1
            if load[worker] >= _INFLIGHT_PER_WORKER:
                free.remove(worker)
            task.slot = worker
            task.sent_at = now
            self._inflight[task.seq] = task
            self._counters["rpcs"] += 1
            call, table = task.call, task.table
            sends.append((worker, (
                "solve", task.seq, call.key, table.schema, call.fds,
                call.node_limit, table._rows, table._weights, task.method,
                task.budget,
            )))
        queue.extendleft(reversed(gated))
        return sends

    def _send_routed(self, sends) -> None:
        if sends:
            with self._io:
                for worker, message in sends:
                    self._send(worker, message)

    def _unroute_locked(self, task: _Task) -> None:
        if task.slot is not None:
            self._load[task.slot] -= 1
            del self._inflight[task.seq]
            task.slot = task.sent_at = None

    def _finish_locked(self, task: _Task, result, error) -> None:
        if task.done:
            return
        self._unroute_locked(task)
        task.result, task.error, task.done = result, error, True
        task.call.remaining -= 1
        self._cond.notify_all()

    def _solve_local(self, task: _Task) -> None:
        """Local degradation: solve *task* in the calling thread from its
        own rows — the same pure solver, byte-identical answer; only
        ``degraded_local`` tells the difference."""
        call = task.call
        result = error = None
        try:
            start = _perf_counter()
            solved, effective = _solve_component(
                task.table, call.fds, task.method, call.node_limit,
                budget_s=task.budget,
            )
            result = (solved, effective, _perf_counter() - start)
        except Exception as exc:  # surfaced like a worker-side failure
            error = repr(exc)
        with self._cond:
            self._counters["degraded_local"] += 1
            self._finish_locked(task, result, error)
        self._recorder.count("pool.degraded_local")

    def _on_reply(self, reply) -> None:
        """Correlate one worker reply (a slot's reader thread)."""
        try:
            seq, result, effective, secs, error = reply
        except (TypeError, ValueError):
            return
        with self._cond:
            task = self._tasks.get(seq)
            if task is None or task.done:
                return  # a late copy of a re-sent solve, or an abandoned call
            if error is None:
                self._finish_locked(task, (result, effective, secs), None)
            else:
                self._finish_locked(task, None, error)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(_TICK_S):
            for worker, slot in enumerate(self._slots):
                if worker not in self._dead and not slot.alive():
                    self._fail_slot(worker, "worker process died")
            self._sweep_deadlines()
            self._service_respawns()
            with self._cond:
                sends = self._route_locked()
            self._send_routed(sends)

    def _backoff(self, attempts: int) -> float:
        return min(self._backoff_s * (2 ** attempts), self._backoff_cap_s)

    def _fail_slot(self, worker: int, reason: str) -> None:
        """Take *worker* out of rotation: requeue its in-flight solves,
        book its replacement (or abandon the slot), kill the process."""
        with self._cond:
            if worker in self._dead or self._closed:
                return
            self._dead.add(worker)
            self._counters["worker_deaths"] += 1
            for task in [t for t in self._inflight.values()
                         if t.slot == worker]:
                self._requeue_after_death_locked(task, reason)
            self._book_respawn_locked(worker)
            slot = self._slots[worker]
            self._cond.notify_all()
        slot.close(0.0)
        self._recorder.count("pool.worker_death")

    def _book_respawn_locked(self, worker: int) -> None:
        """Book slot *worker*'s next respawn after capped exponential
        backoff, or abandon the slot after *max_respawns* (caller holds
        ``_cond``)."""
        attempts = self._respawn_attempts.get(worker, 0)
        if attempts >= self._max_respawns:
            self._counters["abandoned"] += 1
        else:
            self._respawn_at[worker] = _monotonic() + self._backoff(attempts)

    def _requeue_after_death_locked(self, task: _Task, reason: str) -> None:
        """*task*'s worker died (caller holds ``_cond``)."""
        self._unroute_locked(task)
        task.deaths += 1
        if task.deaths <= self._retries:
            # Workers are pure: the identical solve elsewhere is
            # byte-identical.
            self._counters["retries"] += 1
        elif not task.degraded and task.method in ("exact", "dichotomy"):
            # A solve that keeps killing workers degrades to the
            # approximation tier, under a fresh identity so a late
            # exact reply cannot race the degraded one.
            del self._tasks[task.seq]
            task.seq = self._next_seq
            self._next_seq += 1
            self._tasks[task.seq] = task
            task.method = "approx"
            task.degraded = True
            task.deaths = 0
            self._counters["degraded"] += 1
        else:
            self._finish_locked(task, None, reason)
            return
        self._queue.append(task)

    def _sweep_deadlines(self) -> None:
        """Send solves past their deadline again, with capped backoff;
        after *retries* misses, fail the worker over (the requeue then
        counts as a death for every solve it held)."""
        if self._solve_timeout_s is None:
            return
        suspects = set()
        with self._cond:
            now = _monotonic()
            for task in list(self._inflight.values()):
                if now - task.sent_at <= self._solve_timeout_s:
                    continue
                self._counters["timeouts"] += 1
                task.misses += 1
                if task.misses <= self._retries:
                    self._counters["retries"] += 1
                    task.not_before = now + self._backoff(task.misses - 1)
                    self._unroute_locked(task)
                    self._queue.append(task)
                else:
                    task.misses = 0
                    suspects.add(task.slot)
        for worker in suspects:
            self._recorder.count("pool.timeout")
            self._fail_slot(
                worker, f"solve missed its {self._solve_timeout_s:g}s deadline"
            )

    def _service_respawns(self) -> None:
        with self._cond:
            now = _monotonic()
            due = [w for w, at in self._respawn_at.items() if at <= now]
            for worker in due:
                del self._respawn_at[worker]
                self._respawning.add(worker)
        for worker in due:
            ok = self._respawn(worker)
            with self._cond:
                self._respawning.discard(worker)
                if not ok and not self._closed:
                    self._book_respawn_locked(worker)
                self._cond.notify_all()

    def _respawn(self, worker: int) -> bool:
        """Spawn a replacement for slot *worker*; it rejoins the rotation
        at once, since workers hold no state to replay."""
        self._respawn_attempts[worker] = self._respawn_attempts.get(worker, 0) + 1
        generation = self._gens[worker] + 1
        try:
            slot = self._spawn(worker, generation)
        except (OSError, PermissionError, ValueError, ImportError):
            return False
        with self._io, self._cond:
            installed = not self._closed
            if installed:
                self._slots[worker] = slot
                self._gens[worker] = generation
                self._dead.discard(worker)
                self._counters["respawns"] += 1
                self._cond.notify_all()
        if not installed:
            slot.close(0.0)
            return False
        self._recorder.count("pool.respawn")
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _teardown(self, grace_s: float) -> None:
        import threading

        self._stop.set()
        monitor = self._monitor
        if monitor is not None and monitor is not threading.current_thread():
            monitor.join(timeout=2.0)
        with self._cond:
            for task in list(self._tasks.values()):
                self._finish_locked(task, None, "worker pool closed")
            self._queue.clear()
            self._respawn_at.clear()
            live = [s for w, s in enumerate(self._slots) if w not in self._dead]
            self._dead.update(range(len(self._slots)))
            self._cond.notify_all()
        for slot in live:
            slot.send(("stop",))
        for slot in live:
            slot.close(grace_s)

    def close(self) -> None:
        """Stop the workers; safe to call repeatedly."""
        if not self._started or self._closed:
            return
        self._closed = True
        self._teardown(grace_s=2.0)

    def __enter__(self) -> "PersistentWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Solving components
# ---------------------------------------------------------------------------

def _solve_component(
    table: Table,
    fds: FDSet,
    method: str,
    node_limit: int = DEFAULT_NODE_LIMIT,
    index=None,
    budget_s: Optional[float] = None,
) -> Tuple[object, str]:
    """Solve one component with portfolio *method* — the one place a
    method name becomes a solver call, wherever the solve runs (the
    serial loop, a worker, local degradation, the streaming session).

    Returns ``(result, effective method)``.  For an S method *result* is
    the kept identifiers in table order, and the effective method
    differs from the requested one in exactly one case: an ``"exact"``
    solve that outran *budget_s* falls back to the Bar-Yehuda–Even
    construction and reports ``"approx"`` — so the caller's ratio bound,
    bracket, and portfolio label stay honest about what was computed.
    For a U method (:data:`U_METHODS`) *result* is ``(cells, optimal,
    ratio_bound, method text)`` of the Section 4 dispatcher, *cells* the
    ``((tid, attribute), value)`` changes in changed-cell order, fresh
    nulls as the dispatcher minted them (the caller relabels them).
    """
    if method in U_METHODS:
        from .core.urepair import u_repair

        allow_exact_search, exact_budget = U_METHODS[method]
        result = u_repair(
            table, fds, allow_exact_search=allow_exact_search,
            exact_budget=exact_budget, index=index,
        )
        update = result.update
        cells = tuple(
            (cell, update.value(*cell)) for cell in update.changed_cells(table)
        )
        return (cells, result.optimal, result.ratio_bound, result.method), method
    if method == "dichotomy":
        from .core.srepair import opt_s_repair

        return opt_s_repair(fds, table).ids(), method
    if method == "exact":
        from .core.exact import ExactBudgetExceeded, exact_s_repair

        try:
            kept = exact_s_repair(
                table, fds, node_limit=node_limit, index=index,
                exact_budget_s=budget_s,
            ).ids()
        except ExactBudgetExceeded:
            method = "approx"  # the escape hatch: fall through below
        else:
            return kept, "exact"
    if method == "approx":
        from .core.approx import approx_s_repair

        return approx_s_repair(table, fds, index=index).repair.ids(), "approx"
    if method == "greedy":
        from .core.approx import greedy_s_repair

        return greedy_s_repair(table, fds, index=index).repair.ids(), "greedy"
    raise ValueError(f"unknown portfolio method {method!r}")


def solve_components(
    decomp: Decomposition,
    plans: Sequence[ComponentPlan],
    policy: Optional[SolvePolicy] = None,
    recorder=None,
    executor=None,
    *,
    only: Optional[Sequence[int]] = None,
    key=None,
    timeout: Optional[float] = None,
    stats=None,
) -> Tuple[List, List[str]]:
    """Solve each component under its plan; returns the per-component
    results (kept identifiers for an S method, see
    :func:`_solve_component`) plus the *effective* methods, both in
    component order (effective ≠ planned exactly when an ``"exact"``
    solve outran its wall-clock budget and fell back to ``"approx"``).
    With *only* (component positions, ascending) just those components
    are solved, and both lists follow *only* — how a streaming session
    solves its cache misses.

    Each component runs under its plan's method and wall-clock budget
    slice (:meth:`.Decomposition.plan_schedule`), with *policy*'s
    node limit; the solves are *dispatched* in ascending predicted
    difficulty (easiest first — the scheduler's granted budget slices
    assume the cheap solves land before the expensive ones).  Results
    are still reassembled in component order, and since every plan is
    pure prediction the serial and pooled runs stay byte-identical —
    unless a solve outruns its slice, whose wall-clock fallback no plan
    can fix in advance.

    Where the solves run: on *executor*, a caller-built
    :class:`PersistentWorkerPool`, with *timeout* capping the batch
    (default: no cap, since worker deaths and the pool's per-solve
    deadline already cover stalls); else in process, reusing the
    projected sub-indexes.  A running pool takes every task; a pool not
    yet started is started only for two tasks or more, so a lone task
    never spawns workers.  This function never stops a pool: that is
    the caller's.  Each task ships its component's rows, and any pool
    failure falls back to the in-process loop.  *stats*, when
    given, is an object whose ``pool_solves`` / ``serial_solves`` /
    ``pool_fallbacks`` counters are advanced (a
    :class:`~repro.session.SessionStats`).

    With an enabled *recorder* (:mod:`repro.obs`), one ``solve`` trace
    record is emitted per component carrying the plan evidence
    (difficulty, predicted seconds, budget slice, downgrade flag,
    features), the effective method, and the measured solve seconds —
    timed in-process on the serial path, inside the worker on the pool
    path — in context ``"session"`` tagged with *key* when one is
    given, ``"clean"`` otherwise.  The default
    :data:`repro.obs.NULL_RECORDER` costs one attribute check.
    """
    rec = _obs.resolve(recorder)
    if policy is None:
        policy = SolvePolicy()
    positions = range(len(plans)) if only is None else only
    order = sorted(
        positions,
        key=lambda i: (
            plans[i].difficulty if plans[i].difficulty is not None else 0.0,
            i,
        ),
    )
    components = decomp.components
    ordered = None
    if executor is not None and (
        len(order) > 1 or (order and executor.alive)
    ):
        ordered = _solve_on_pool(executor, decomp, plans, order, policy,
                                 timeout, key)
        if ordered is None and stats is not None:
            stats.pool_fallbacks += 1
    path = "pool"
    if ordered is None:
        path = "serial"
        timed = rec.enabled
        ordered = []
        for i in order:
            start = _perf_counter() if timed else 0.0
            result, effective = _solve_component(
                components[i].table, decomp.fds, plans[i].method,
                policy.node_limit, index=components[i].index,
                budget_s=plans[i].budget_s,
            )
            ordered.append(
                (result, effective, _perf_counter() - start if timed else 0.0)
            )
    if stats is not None:
        if path == "pool":
            stats.pool_solves += len(order)
        else:
            stats.serial_solves += len(order)
    outcomes = dict(zip(order, ordered))
    if rec.enabled:
        context = "clean" if key is None else "session"
        tag = None if key is None else str(key)
        for i in positions:
            _result, effective, secs = outcomes[i]
            component = components[i]
            rec.solve_record(
                ordinal=i,
                size=component.size,
                edges=component.index.num_edges,
                planned=plans[i].method,
                effective=effective,
                actual_s=secs,
                path=path,
                context=context,
                plan=plans[i],
                key=tag,
            )
    return ([outcomes[i][0] for i in positions],
            [outcomes[i][1] for i in positions])


def _solve_on_pool(pool, decomp: Decomposition, plans, order, policy,
                   timeout: Optional[float], key=None):
    """Solve *decomp*'s components on *pool*, in *order*, each task
    carrying its component sub-table; *timeout* caps the batch (see
    :meth:`PersistentWorkerPool.solve`).  Starts the pool if needed.
    ``None`` when the pool cannot run or fails — the caller then solves
    locally."""
    components = decomp.components
    tasks = [
        (components[i].table, plans[i].method, plans[i].budget_s)
        for i in order
    ]
    try:
        if not pool.start():
            return None
        return pool.solve(tasks, timeout=timeout, fds=decomp.fds,
                          node_limit=policy.node_limit, key=key)
    except RuntimeError:
        return None  # solver or pool failure: solve locally


def _method_mix(methods: Sequence[str]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for m in methods:
        counts[m] = counts.get(m, 0) + 1
    return counts


def _mix_label(counts: Mapping[str, int]) -> str:
    return ", ".join(
        f"{S_METHOD_NAMES[m]}×{counts[m]}" for m in sorted(counts)
    )


def assemble_s_result(decomp: Decomposition, solves: Sequence):
    """Merge per-component solves (one
    :class:`~repro.pipeline._ComponentSolve` per component, in order)
    into one :class:`SRepairResult`, by their deleted ids: the repair is
    the table minus them — a table built on its first read
    (:class:`~repro.core.table._DeferredTable`) — and the distance their
    weights' exact ``math.fsum``, which equals ``dist_sub`` of the
    repair.  The cost is O(components + deleted ids), never O(|T|).
    Where the components were solved leaves no trace: serial and pooled
    results are equal field for field."""
    from .core.srepair import SRepairResult

    table = decomp.table
    deleted = [
        solve.deletions(component)[0]
        for component, solve in zip(decomp.components, solves)
    ]
    weight_of = table._weights.__getitem__
    methods = [solve.method for solve in solves]
    counts = _method_mix(methods)
    optimal = all(m in ("dichotomy", "exact") for m in methods)
    ratio = max((S_METHOD_RATIOS[m] for m in methods), default=1.0)
    label = (
        f"decomposed[{decomp.component_count} components"
        + (f": {_mix_label(counts)}" if counts else "")
        + "]"
    )
    return SRepairResult(
        repair=_DeferredTable(table, deleted),
        distance=math.fsum(map(weight_of, chain.from_iterable(deleted))),
        optimal=optimal,
        ratio_bound=1.0 if optimal else ratio,
        method=label,
        method_counts=counts,
        component_count=decomp.component_count,
    )
