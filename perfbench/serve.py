"""The daemon workload: ``fdrepair serve`` over TCP, 8 tenants, 2 clients.

The daemon runs as a child process started from the checkout's sources;
the load generator is this process: two threads, each a closed-loop
client on its own TCP connection owning four tenants.  Every request
has a deadline, so a wedged daemon shows up as failed ops, never as a
stalled run.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    FDS, SCHEMA, SETUP_REPEATS, generate_rows, mean, median,
    optimal_distance, vm_hwm_mb,
)
from inproc import DeltaScript, Outcome
from spans import Tracer, perf

TENANT_ROWS = 20_000
TENANTS = 8
CLIENTS = 2
#: Tenants 2k and 2k+1 are seeded with the same rows, so the daemon's
#: shared solution cache serves one tenant's components to the other.
DISTINCT_SEEDS = 4
#: Flush policy, identical in every run: fsync every 8 journal
#: records, snapshot every 256 (the daemon's defaults).
JOURNAL_FSYNC = 8
SNAPSHOT_EVERY = 256
PARALLEL = 1
#: ``asyncio.start_server`` keeps the default 64 KiB ``StreamReader``
#: limit: a longer request line is dropped with the connection and no
#: error reply.  Seed chunks stay below this.
LINE_LIMIT = 64 * 1024
SEED_CHUNK_ROWS = 1500
#: Per-request deadline; a request that misses it counts as failed.
OP_DEADLINE_S = 20.0
#: Load-phase op mix (cumulative thresholds).
MIX = (("collide", 0.3), ("fresh", 0.5), ("delete", 0.7),
       ("status", 0.9), ("repair", 1.0))
WIRE_OPS = ("append", "delete", "status", "repair")
#: The comparable fields of a ``repair`` reply.
SUMMARY_FIELDS = ("distance", "tuples", "conflicts", "components",
                  "method", "optimal", "ratio_bound")


def encode(obj) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


class Conn:
    """One TCP connection speaking the daemon's JSONL protocol."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.buf = b""
        self.seq = 0

    def call(self, obj: dict, deadline: float) -> Optional[dict]:
        """Send one request and wait for its reply until *deadline*
        (a ``perf()`` instant); ``None`` when it never came.  Replies to
        earlier, timed-out requests are skipped by ``seq``."""
        self.seq += 1
        obj = dict(obj, seq=self.seq)
        data = encode(obj)
        if len(data) >= LINE_LIMIT:
            raise ValueError(f"request line of {len(data)} bytes")
        try:
            self.sock.settimeout(max(0.001, deadline - perf()))
            self.sock.sendall(data)
            while True:
                nl = self.buf.find(b"\n")
                if nl >= 0:
                    line, self.buf = self.buf[:nl], self.buf[nl + 1:]
                    reply = json.loads(line)
                    if reply.get("seq") == self.seq:
                        return reply
                    continue
                remaining = deadline - perf()
                if remaining <= 0:
                    return None
                self.sock.settimeout(remaining)
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    return None
                self.buf += chunk
        except (OSError, ValueError):
            return None

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class Daemon:
    """``fdrepair serve`` in its own process group."""

    def __init__(self, root: str, run_dir: str, state_dir: str,
                 cpu: Optional[int]) -> None:
        self.state_dir = state_dir
        shutil.rmtree(state_dir, ignore_errors=True)
        tmp = os.path.join(run_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = tmp
        env.pop("FDREPAIR_FAULTS", None)
        self.log_path = os.path.join(run_dir, "daemon.log")
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--parallel", str(PARALLEL), "--state-dir", state_dir,
             "--journal-fsync", str(JOURNAL_FSYNC),
             "--snapshot-every", str(SNAPSHOT_EVERY)],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.port = self._wait_for_port(time.monotonic() + 60)

    def _wait_for_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                for line in handle:
                    if line.startswith(b"listening on "):
                        return int(line.rsplit(b":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.kill()
        raise RuntimeError("daemon did not start:\n" + self.tail())

    def tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def pids(self) -> List[int]:
        """The daemon and its descendants (the pool worker)."""
        found, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            found.append(pid)
            try:
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/children") as handle:
                        todo.extend(int(c) for c in handle.read().split())
            except OSError:
                pass
        return found

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids())

    def stop(self, conn: Optional[Conn]) -> None:
        """Graceful ``shutdown``; killed if it does not exit in time.
        Returns once every process of the group has ended."""
        try:
            if conn is not None and self.proc.poll() is None:
                conn.call({"op": "shutdown"}, perf() + 5)
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and _group_alive(self.proc.pid):
            time.sleep(0.02)
        self.log.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


class Tenant:
    """One tenant's data, delta stream and request script."""

    def __init__(self, index: int, seed: str, rows: List[tuple]) -> None:
        self.name = f"t{index}"
        self.rows = rows
        self.deltas = DeltaScript(len(rows), seed)
        self.applied: List[Tuple[str, object]] = []
        self.final: Optional[dict] = None

    def address(self, op: str, **payload) -> dict:
        return dict(op=op, tenant=self.name, session="main", **payload)

    def setup_requests(self) -> List[dict]:
        reqs = [self.address("open", schema=list(SCHEMA), fds=FDS)]
        i = 0
        while i < len(self.rows):
            n = SEED_CHUNK_ROWS
            while True:
                chunk = [list(r) for r in self.rows[i:i + n]]
                req = self.address("append", rows=chunk, repair=False)
                if len(encode(dict(req, seq=1 << 40))) < LINE_LIMIT:
                    break
                n //= 2
            reqs.append(req)
            i += len(chunk)
        reqs.append(self.address("repair"))
        return reqs

    def load_request(self, kind: str) -> Tuple[dict, Optional[tuple]]:
        if kind in ("status", "repair"):
            return self.address(kind), None
        delta = self.deltas.make(kind)
        if delta[0] == "delete":
            return self.address("delete", ids=[delta[1]]), delta
        tid, row = delta[1]
        return self.address("append", rows=[list(row)], ids=[tid]), delta


class Client:
    """A closed-loop client owning a few tenants on one connection."""

    def __init__(self, name: str, port: int, tenants: List[Tenant],
                 seed: str, tracer: Tracer, script: list,
                 clock: "Clock") -> None:
        self.name = name
        self.conn = Conn(port)
        self.tenants = tenants
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.script = script
        self.clock = clock
        self.samples: List[Tuple[str, float, bool]] = []
        self.traced_ms: List[float] = []
        self.plain_ms: List[float] = []
        self.errors: List[str] = []
        self.end = 0.0

    def send(self, req: dict, phase: str) -> Optional[dict]:
        self.script.append((perf(), phase, req))
        reply = self.conn.call(req, self.clock.deadline())
        if reply is None or not reply.get("ok"):
            self.errors.append(f"{req['op']} {req.get('tenant')}: "
                               f"{(reply or {}).get('error', 'no reply')}")
            return None
        return reply

    def run(self, phase: str) -> None:
        self.errors = []
        try:
            if phase == "setup":
                self.run_setup()
            else:
                self.run_load()
        except Exception as exc:  # reported as a failed check, not a hang
            self.errors.append(f"client crashed: {exc!r}")
        self.end = perf()

    def run_setup(self) -> None:
        for tenant in self.tenants:
            for req in tenant.setup_requests():
                reply = self.send(req, "setup")
                if reply is None:
                    return
                if req["op"] == "repair":
                    tenant.final = reply

    def run_load(self) -> None:
        i = 0
        while perf() < self.clock.load_end:
            tenant = self.tenants[self.rng.randrange(len(self.tenants))]
            r = self.rng.random()
            kind = next(k for k, cut in MIX if r < cut)
            req, delta = tenant.load_request(kind)
            traced = self.tracer.active and i % 2 == 0
            start = perf()
            reply = self.send(req, "load")
            end = perf()
            ok = reply is not None
            if ok and delta is not None:
                tenant.applied.append(delta)
            self.samples.append((req["op"], (end - start) * 1e3, ok))
            (self.traced_ms if traced else self.plain_ms).append(
                (end - start) * 1e3)
            if traced:
                self.tracer.record(f"{self.name}/{i}", f"wire.{req['op']}",
                                   start, end)
            i += 1


class Clock:
    """The run's hard deadline and the end of its load phase."""

    def __init__(self, hard_deadline: float) -> None:
        self.hard_deadline = hard_deadline
        self.load_end = 0.0

    def deadline(self) -> float:
        """Deadline of a request sent now."""
        return min(perf() + OP_DEADLINE_S, self.hard_deadline)


def _run_clients(clients: List[Client], phase: str) -> None:
    """Run every client's *phase* concurrently, one thread each."""
    threads = [threading.Thread(target=c.run, args=(phase,), daemon=True)
               for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _stats(conn: Conn, clock: "Clock") -> dict:
    return conn.call({"op": "stats"}, clock.deadline()) or {}


class Round:
    """One daemon's share of a run: set-up, load window, final checks."""

    def __init__(self) -> None:
        self.clients: List[Client] = []
        self.script: list = []
        self.before: dict = {}
        self.after: dict = {}
        self.final_stats: dict = {}
        self.load_s = 0.0


def run_serve(root: str, run_dir: str, seconds: float, seed: int,
              tracer: Tracer, traced: bool, budget_s: float,
              cpu: Optional[int]) -> Outcome:
    """Three rounds, each on a fresh daemon: set up every tenant (timed;
    ``setup_s`` is the median of the three), drive the load mix for a
    third of *seconds*, then check every tenant's final repair.  Spread
    over three daemons, the measured window samples the machine at three
    moments rather than one, which narrowed the run-to-run spread of
    ``op_p50_ms`` from 0.11 to 0.08.  Rounds stop once the run's hard
    deadline has passed.

    *cpu*, when given, is the one CPU the daemon and its pool worker may
    run on (the caller pins the load generator elsewhere)."""
    out = Outcome()
    clock = Clock(perf() + budget_s)
    datasets = [generate_rows(TENANT_ROWS, seed * 1000 + k)
                for k in range(DISTINCT_SEEDS)]
    per_dataset = TENANTS // DISTINCT_SEEDS
    state_dir = os.path.join(run_dir, "state")
    out.info["state_dir"] = state_dir
    rounds = []
    for attempt in range(SETUP_REPEATS):
        if rounds and perf() >= clock.hard_deadline:
            break
        tenants = [Tenant(k, f"{seed}/{attempt}/{k}",
                          datasets[k // per_dataset])
                   for k in range(TENANTS)]
        rnd = _round(out, root, run_dir, state_dir, cpu, tenants,
                     f"{seed}/{attempt}", tracer, traced, clock,
                     seconds / SETUP_REPEATS)
        _check_replay(out, tenants)
        rounds.append(rnd)

    samples = [s for r in rounds for c in r.clients for s in c.samples]
    out.op_ms = [ms for _op, ms, ok in samples if ok]
    out.failed += sum(1 for _op, _ms, ok in samples if not ok)
    out.busy_s = sum(r.load_s for r in rounds)
    out.info["max_line_bytes"] = max(
        len(encode(dict(req, seq=1 << 40))) for _t, _p, req in rnd.script)

    layers = out.layers
    totals = {"cache_hits": 0, "cache_misses": 0, "snapshots": 0,
              "retries": 0, "worker_deaths": 0}
    for r in rounds:
        stats = r.final_stats
        supervision = stats.get("pool_supervision") or {}
        out.check(stats.get("pool_alive") is True, "pool is not alive")
        for key in ("cache_hits", "cache_misses", "snapshots"):
            totals[key] += stats.get(key, 0)
        for key in ("retries", "worker_deaths"):
            totals[key] += supervision.get(key, 0)
    out.check(totals["retries"] == 0 and totals["worker_deaths"] == 0,
              f"pool retries {totals['retries']}, "
              f"worker deaths {totals['worker_deaths']}")
    lookups = totals["cache_hits"] + totals["cache_misses"]
    layers["cache.lookups"] = float(lookups)
    layers["cache.hit_ratio"] = (
        totals["cache_hits"] / lookups if lookups else 0.0)
    layers["snapshot.count"] = float(totals["snapshots"])
    layers["pool.retries"] = float(totals["retries"])
    layers["pool.worker_deaths"] = float(totals["worker_deaths"])
    if traced:
        _wire_layers(layers, rounds)
        traced_ms = [ms for r in rounds for c in r.clients
                     for ms in c.traced_ms]
        plain_ms = [ms for r in rounds for c in r.clients
                    for ms in c.plain_ms]
        layers["trace.traced_op_ms"] = mean(traced_ms)
        layers["trace.overhead_ms"] = (
            median(traced_ms) - median(plain_ms)
            if traced_ms and plain_ms else 0.0)
        _replay_layers(layers, rnd.script, run_dir, tracer)
    return out


def _round(out: Outcome, root: str, run_dir: str, state_dir: str,
           cpu: Optional[int], tenants: List[Tenant], seed: str,
           tracer: Tracer, traced: bool, clock: "Clock",
           seconds: float) -> Round:
    rnd = Round()
    expected = optimal_distance(TENANT_ROWS)
    daemon: Optional[Daemon] = None
    control: Optional[Conn] = None
    try:
        daemon = Daemon(root, run_dir, state_dir, cpu)
        control = Conn(daemon.port)
        if control.call({"op": "ping"}, clock.deadline()) is None:
            raise RuntimeError("daemon did not answer ping")
        rnd.clients = [
            Client(f"c{c}", daemon.port, tenants[c::CLIENTS],
                   f"{seed}/{c}", tracer, rnd.script, clock)
            for c in range(CLIENTS)
        ]
        start = perf()
        _run_clients(rnd.clients, "setup")
        out.setup_s.append(max(c.end for c in rnd.clients) - start)
        for tenant in tenants:
            reply = tenant.final or {}
            out.check(reply.get("distance") == expected,
                      f"{tenant.name} seed repair distance "
                      f"{reply.get('distance')} != {expected}")
        for client in rnd.clients:
            out.failed += len(client.errors)
            out.checks_failed.extend(client.errors[:3])

        rnd.before = _stats(control, clock)
        tracer.active = traced
        clock.load_end = min(perf() + seconds, clock.hard_deadline)
        load_start = perf()
        _run_clients(rnd.clients, "load")
        tracer.active = False
        rnd.load_s = max(c.end for c in rnd.clients) - load_start
        rnd.after = _stats(control, clock)
        for client in rnd.clients:
            out.checks_failed.extend(client.errors[:3])

        # Each tenant's final repair, checked against an in-process
        # replay of its script by the caller.
        for tenant in tenants:
            reply = control.call(tenant.address("repair"), clock.deadline())
            tenant.final = reply if reply and reply.get("ok") else None
            out.check(tenant.final is not None,
                      f"{tenant.name} final repair failed")
        out.attempted += len(rnd.script) + len(tenants)
        rnd.final_stats = _stats(control, clock)
        out.peak_rss_mb = max(out.peak_rss_mb, daemon.peak_rss_mb())
        for client in rnd.clients:
            client.conn.close()
        daemon.stop(control)
        daemon = None
    finally:
        for client in rnd.clients:
            client.conn.close()
        if control is not None:
            control.close()
        if daemon is not None:
            daemon.kill()
    return rnd


def _wire_layers(layers: Dict[str, float], rounds: List[Round]) -> None:
    """Client round trip vs daemon-side op time, per op type (means over
    the load windows; the daemon's histograms give exact totals)."""
    for op in WIRE_OPS:
        rtts = [ms for r in rounds for c in r.clients
                for o, ms, ok in c.samples if o == op and ok]
        count = total = 0.0
        for r in rounds:
            a = (r.after.get("op_latency_s") or {}).get(f"op.{op}") or {}
            b = (r.before.get("op_latency_s") or {}).get(f"op.{op}") or {}
            count += a.get("count", 0) - b.get("count", 0)
            total += a.get("total_s", 0.0) - b.get("total_s", 0.0)
        server_ms = total * 1e3 / count if count else 0.0
        wire_ms = mean(rtts)
        layers[f"wire.rtt_ms.{op}"] = wire_ms
        layers[f"server.op_ms.{op}"] = server_ms
        layers[f"transport.ms.{op}"] = wire_ms - server_ms if rtts else 0.0


def _check_replay(out: Outcome, tenants: List[Tenant]) -> None:
    """Each tenant's final ``repair`` reply must match an in-process
    ``RepairSession`` fed the same seed chunks and acknowledged deltas."""
    from repro import RepairSession, Table
    from repro.core.fd import parse_fd_set
    from repro.protocol import result_summary

    fds = parse_fd_set(FDS)
    for tenant in tenants:
        if tenant.final is None:
            continue
        session = RepairSession(Table(SCHEMA, {}), fds)
        for req in tenant.setup_requests()[1:-1]:
            session.append(req["rows"], repair=False)
        for kind, payload in tenant.applied:
            if kind == "delete":
                session.delete([payload], repair=False)
            else:
                tid, row = payload
                session.append([row], ids=[tid], repair=False)
        want = result_summary(session.repair())
        session.close()
        got = {k: tenant.final.get(k) for k in SUMMARY_FIELDS}
        want = {k: want.get(k) for k in SUMMARY_FIELDS}
        out.check(got == want,
                  f"{tenant.name} daemon repair {got} != replay {want}")


def _replay_layers(layers: Dict[str, float], script: list, run_dir: str,
                   tracer: Tracer) -> None:
    """Replay the run's request script against an in-process
    ``SessionManager`` under the same flush policy, timing the layers
    the wire hides: protocol codec, ``run_op``, journal append and
    snapshot compaction."""
    from repro.protocol import Request, decode_line
    from repro.protocol import encode as encode_reply
    from repro.server import ServerConfig, SessionManager
    from repro.state import OpJournal

    replay_dir = os.path.join(run_dir, "replay-state")
    shutil.rmtree(replay_dir, ignore_errors=True)
    config = ServerConfig(
        workers=PARALLEL, state_dir=replay_dir,
        journal_fsync_every=JOURNAL_FSYNC, snapshot_every=SNAPSHOT_EVERY,
    )
    manager = SessionManager(config)
    tracer.wrap(OpJournal, "append", "journal.append")
    tracer.wrap(SessionManager, "run_op", "manager.run_op")
    tracer.wrap(SessionManager, "compact", "snapshot.compact")
    protocol_us: List[float] = []
    try:
        for i, (_t, phase, req) in enumerate(sorted(script,
                                                     key=lambda s: s[0])):
            line = json.dumps(req, separators=(",", ":"))
            tracer.active = phase == "load"
            with tracer.span("op", op=("replay", i)):
                t0 = perf()
                request = Request(decode_line(line))
                t1 = perf()
                if request.op == "open":
                    fields = manager.open(request.tenant, request.session,
                                          request.payload)
                else:
                    entry = manager.entry(request.tenant, request.session)
                    fields = manager.run_op(entry, request.op,
                                            request.payload)
                manager.evict_to_limit()
                manager.maybe_compact()
                t2 = perf()
                encode_reply(request.reply(**fields))
                t3 = perf()
            if tracer.active:
                protocol_us.append(((t1 - t0) + (t3 - t2)) * 1e6)
        tracer.active = True
        manager.compact(force=True)
    finally:
        tracer.active = False
        manager.shutdown()
        shutil.rmtree(replay_dir, ignore_errors=True)

    def span_mean(name: str, scale: float) -> float:
        return mean([s.ms * scale for s in tracer.spans if s.name == name])

    layers["manager.run_op_ms"] = span_mean("manager.run_op", 1.0)
    layers["journal.append_us"] = span_mean("journal.append", 1e3)
    layers["snapshot.compact_ms"] = span_mean("snapshot.compact", 1.0)
    layers["protocol.us"] = mean(protocol_us)
