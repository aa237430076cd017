#!/usr/bin/env python
"""CI smoke for the repair daemon: start ``fdrepair serve``, drive two
tenants over TCP, assert clean shutdown.

Every step runs under a hard timeout, so a hung worker pool (the
failure mode PR 6's lifecycle fixes target) fails CI promptly instead
of stalling the job until the runner-level kill.  Exit code 0 means:
the daemon came up, both tenants' sessions opened, appended, repaired
(with the expected distances), `status` answered, an ``open`` with a
malformed guarantee was refused without taking a slot, `stats` saw
both tenants sharing one pool and had counted every op already
answered, `shutdown` was acknowledged, and the process exited by itself
within the grace period.

Before the daemon starts, a legacy-state phase runs ``fdrepair recover
--dry-run --json`` and then ``recover --json`` on a temp state dir
holding each committed ``tests/data/v*/daemon_snapshot.pkl``: every
session must come back, and migration must drop every cache entry of
the version-1 snapshot and none of the version-2 one.  It does the same
on a state dir whose journal has a damaged line: both must count the
same unreplayed lines, and recovery must set the journal aside as
``journal.jsonl.damaged``.

With ``--chaos`` the smoke turns adversarial: a ``FDREPAIR_FAULTS``
plan kills a pool worker mid-solve (the supervisor must heal it and the
repair distances must still come out right), the daemon is then
hard-killed (SIGKILL, no shutdown op) and restarted on the same
``--state-dir``, which must recover both tenant sessions from the op
journal; SIGTERM must drain gracefully and exit 0.  A pooled phase
boots ``fdrepair serve --parallel 2`` under a ``worker.recv`` kill
plan: the fleet must heal the kill (death + respawn visible in
``stats``) and every acknowledged reply must be byte-identical to a
``--parallel 0`` reference daemon's.

With ``--stdio`` it drives ``fdrepair serve --stdio --parallel 1``
instead: ``open`` → ``append`` → ``repair`` under a plan that kills the
pool worker at its first solve (so the pool respawns while the stdin
reader thread is live), then an over-long request line and a ``ping``.
Every reply must arrive within the step timeout.  ``--chaos`` runs this
phase too.

Usage: python scripts/serve_smoke.py [--timeout SECONDS] [--chaos | --stdio]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

STEP_TIMEOUT = 30.0

FAULTS_ENV = "FDREPAIR_FAULTS"

#: Kill worker 0's first incarnation at its first solve; the respawn
#: (generation 1) survives, so healing is observable and deterministic.
CHAOS_PLAN = [{"site": "worker.solve", "action": "kill",
               "match": {"worker": 0, "generation": 0}}]

#: Kill pool worker 0's first incarnation at its first message (its
#: first solve); the replacement generation survives and the solve is
#: sent again, so the repair must still be byte-identical to an
#: in-process daemon's.
POOL_CHAOS_PLAN = [{"site": "worker.recv", "action": "kill", "at": 1,
                     "match": {"worker": 0, "generation": 0}}]

#: A request line longer than the daemon's 1 MiB ``MAX_LINE_BYTES``.
OVERLONG_BYTES = 2 << 20

#: Committed daemon snapshots of earlier format versions, and whether
#: migration drops every cache entry (version 1 keyed them by a knob
#: tuple that cannot be re-keyed) or none (version 2).
LEGACY_SNAPSHOTS = (("v1", True), ("v2", False))

#: A journal whose second line is damaged: an intact ``open``, a line
#: that does not decode, an intact ``append``.
DAMAGED_JOURNAL = "".join(line + "\n" for line in (
    json.dumps({"seq": 1, "op": "open", "tenant": "t", "session": "s",
                "payload": {"schema": ["A", "B"], "fds": "A -> B"}}),
    "garbage{",
    json.dumps({"seq": 3, "op": "append", "tenant": "t", "session": "s",
                "payload": {"rows": [["a", "x"], ["a", "y"]]}}),
))


def fail(message: str, proc: subprocess.Popen = None) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    if proc is not None:
        proc.kill()
        try:
            _out, err = proc.communicate(timeout=5)
            if err:
                sys.stderr.write(err.decode("utf-8", "replace")[-2000:])
        except subprocess.TimeoutExpired:
            pass
    sys.exit(1)


def _smoke_env() -> dict:
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _spawn(extra_argv, env, deadline):
    """Start ``fdrepair serve`` and wait for its listening banner."""
    argv = [sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--parallel", "1"] + extra_argv
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    start = time.monotonic()
    banner = proc.stdout.readline().decode("utf-8", "replace").strip()
    if time.monotonic() - start > deadline or not banner.startswith(
        "listening on"
    ):
        fail(f"no listening banner (got {banner!r})", proc)
    port = int(banner.rsplit(":", 1)[1])
    print(f"daemon up on port {port}")
    return proc, port


def _connect(port, deadline, proc):
    sock = socket.create_connection(("127.0.0.1", port), timeout=deadline)
    sock.settimeout(deadline)
    rfile = sock.makefile("rb")

    def rpc(obj: dict) -> dict:
        sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))
        line = rfile.readline()
        if not line:
            fail(f"connection closed answering {obj}", proc)
        reply = json.loads(line)
        print(f"  {obj.get('op')}: {json.dumps(reply)[:120]}")
        return reply

    return sock, rpc


def _recover_json(state_dir, env, timeout, *flags) -> dict:
    """``fdrepair recover --json`` on *state_dir*: its parsed report."""
    argv = [sys.executable, "-m", "repro.cli", "recover", "--state-dir",
            state_dir, "--json", *flags]
    try:
        done = subprocess.run(argv, capture_output=True, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(argv[2:])} hung past {timeout}s")
    if done.returncode != 0:
        fail(f"{' '.join(argv[2:])} exited {done.returncode}: "
             f"{done.stderr[-500:]}")
    return json.loads(done.stdout)


def run_legacy_state(args) -> None:
    """Recover each committed legacy daemon snapshot offline: the dry
    run must show its version, sessions and migration drops, and the
    recovery must bring back every session and drop exactly those.  On
    a damaged journal both must count the same unreplayed lines, and
    recovery must set the journal aside."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = _smoke_env()
    for version, drops_all in LEGACY_SNAPSHOTS:
        fixture = os.path.join(repo, "tests", "data", version,
                               "daemon_snapshot.pkl")
        with tempfile.TemporaryDirectory() as state_dir:
            shutil.copy(fixture, os.path.join(state_dir, "snapshot.pkl"))
            snap = _recover_json(state_dir, env, args.timeout,
                                 "--dry-run").get("snapshot") or {}
            cached = snap.get("cached_solutions")
            drops = cached if drops_all else 0
            if (snap.get("version") != int(version[1:])
                    or not snap.get("sessions") or not cached
                    or snap.get("migration_drops") != drops):
                fail(f"{version} dry run: expected version {version[1:]}, "
                     f"sessions, cache entries and {drops} migration "
                     f"drops: {snap}")
            recovery = _recover_json(state_dir, env,
                                     args.timeout).get("recovery") or {}
            if (recovery.get("recovered_sessions") != snap["sessions"]
                    or recovery.get("dropped_cache_entries") != drops
                    or recovery.get("errors")):
                fail(f"{version} recovery: expected {snap['sessions']} "
                     f"sessions and {drops} dropped entries: {recovery}")
        print(f"legacy {version} snapshot: {snap['sessions']} sessions "
              f"recovered, {drops} of {cached} cache entries dropped")
    with tempfile.TemporaryDirectory() as state_dir:
        journal = os.path.join(state_dir, "journal.jsonl")
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write(DAMAGED_JOURNAL)
        dry = _recover_json(state_dir, env, args.timeout, "--dry-run")
        unreplayed = dry["journal"]["unreplayed_lines"]
        recovery = _recover_json(state_dir, env,
                                 args.timeout).get("recovery") or {}
        if (not unreplayed
                or recovery.get("unreplayed_journal_lines") != unreplayed
                or recovery.get("damaged_journal") != [journal + ".damaged"]
                or not os.path.exists(journal + ".damaged")):
            fail(f"damaged journal: dry run counted {unreplayed} unreplayed "
                 f"lines; recovery: {recovery}")
        print(f"damaged journal: {unreplayed} unreplayed lines set aside")


def run_chaos(args) -> None:
    """The fault-tolerance smoke: heal a killed worker, recover from a
    hard kill via the journal, drain gracefully on SIGTERM."""
    deadline = args.timeout
    state_dir = args.state_dir
    if state_dir is None:
        import tempfile

        state_dir = tempfile.mkdtemp(prefix="fdrepair-chaos-")
    env = _smoke_env()
    env[FAULTS_ENV] = json.dumps(CHAOS_PLAN)

    # Phase 1: serve with a worker-killing fault plan.  The supervisor
    # must absorb the death: correct distances, supervision counters.
    proc, port = _spawn(["--state-dir", state_dir], env, deadline)
    sock, rpc = _connect(port, deadline, proc)
    for tenant in ("acme", "globex"):
        reply = rpc({"op": "open", "tenant": tenant, "session": "main",
                     "schema": ["A", "B"], "fds": "A -> B"})
        if not reply.get("ok"):
            fail(f"open failed for {tenant}: {reply}", proc)
        reply = rpc({"op": "append", "tenant": tenant, "session": "main",
                     "rows": [["a", "x"], ["a", "y"], ["b", "z"]]})
        if not reply.get("ok") or reply.get("distance") != 1.0:
            fail(f"append repair wrong under chaos for {tenant}: {reply}",
                 proc)
    sup = {}
    poll_until = time.monotonic() + deadline
    while time.monotonic() < poll_until:
        sup = rpc({"op": "stats"}).get("pool_supervision", {})
        if sup.get("respawns", 0) >= 1:
            break
        time.sleep(0.2)
    if sup.get("worker_deaths", 0) < 1 or sup.get("respawns", 0) < 1:
        fail(f"supervisor saw no worker death/respawn: {sup}", proc)
    print(f"supervisor healed a worker kill: {sup}")

    # Phase 2: hard-kill the daemon (no shutdown op, no snapshot) and
    # restart on the same state dir; the journal must bring both
    # tenants back.
    sock.close()
    proc.kill()
    proc.wait(timeout=deadline)
    print("daemon hard-killed; restarting on the same --state-dir")
    proc, port = _spawn(["--state-dir", state_dir], env, deadline)
    sock, rpc = _connect(port, deadline, proc)
    stats = rpc({"op": "stats"})
    if stats.get("recovered_sessions") != 2:
        fail(f"expected 2 recovered sessions: {stats}", proc)
    for tenant in ("acme", "globex"):
        reply = rpc({"op": "status", "tenant": tenant, "session": "main"})
        if not reply.get("ok") or reply.get("conflicts") != 1:
            fail(f"recovered status wrong for {tenant}: {reply}", proc)
        reply = rpc({"op": "repair", "tenant": tenant, "session": "main"})
        if not reply.get("ok") or reply.get("distance") != 1.0:
            fail(f"recovered repair wrong for {tenant}: {reply}", proc)
    print("recovery OK: both tenants byte-for-byte back in business")

    # Phase 3: SIGTERM drains gracefully — exit code 0, not a signal
    # death — and leaves a compacted snapshot plus journal behind for
    # the CI artifact.
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=deadline)
    except subprocess.TimeoutExpired:
        fail(f"daemon still running {deadline}s after SIGTERM", proc)
    if code != 0:
        _out, err = proc.communicate()
        fail(f"SIGTERM exit {code}: {err.decode('utf-8', 'replace')[-500:]}")
    snapshot = os.path.join(state_dir, "snapshot.pkl")
    journal = os.path.join(state_dir, "journal.jsonl")
    if not os.path.exists(snapshot):
        fail(f"graceful drain left no snapshot at {snapshot}")
    if not os.path.exists(journal):
        fail(f"no journal at {journal}")
    print(f"chaos phases 1-3 OK: healed kill, journal recovery, clean "
          f"SIGTERM drain (state in {state_dir})")

    # Phase 4: pooled execution under a worker-kill plan.  A daemon on
    # --parallel 2 loses worker 0 to the fault plan mid-stream; the
    # fleet must heal it (death + respawn in stats) and every
    # acknowledged reply must match a --parallel 0 reference daemon
    # byte for byte.
    script = [
        {"op": "open", "tenant": "acme", "session": "pool",
         "schema": ["A", "B", "C"], "fds": "A -> B; B -> C"},
        {"op": "append", "tenant": "acme", "session": "pool",
         "rows": [["a", "x", "1"], ["a", "y", "1"], ["b", "z", "2"],
                  ["c", "w", "3"], ["c", "w", "3"], ["c", "v", "4"]]},
        {"op": "repair", "tenant": "acme", "session": "pool"},
        {"op": "status", "tenant": "acme", "session": "pool"},
    ]

    def _drive_script(workers, drive_env):
        proc, port = _spawn(["--parallel", str(workers)], drive_env,
                            deadline)
        sock, rpc = _connect(port, deadline, proc)
        replies = [rpc(dict(msg)) for msg in script]
        healed = {}
        poll_until = time.monotonic() + deadline
        while workers and time.monotonic() < poll_until:
            healed = rpc({"op": "stats"}).get("pool_supervision", {})
            if healed.get("respawns", 0) >= 1:
                break
            time.sleep(0.2)
        if not rpc({"op": "shutdown"}).get("ok"):
            fail("pooled shutdown not acknowledged", proc)
        sock.close()
        try:
            code = proc.wait(timeout=deadline)
        except subprocess.TimeoutExpired:
            fail(f"daemon still running {deadline}s after shutdown", proc)
        if code != 0:
            _out, err = proc.communicate()
            fail(f"pooled daemon exited {code}: "
                 f"{err.decode('utf-8', 'replace')[-500:]}")
        return replies, healed

    reference, _ = _drive_script(0, _smoke_env())
    pool_env = _smoke_env()
    pool_env[FAULTS_ENV] = json.dumps(POOL_CHAOS_PLAN)
    pooled, healed = _drive_script(2, pool_env)
    if pooled != reference:
        fail(f"pooled replies diverge from reference:\n"
             f"  pooled:    {pooled}\n  reference: {reference}")
    if healed.get("worker_deaths", 0) < 1 or healed.get("respawns", 0) < 1:
        fail(f"pool fleet saw no death/respawn: {healed}")
    print(f"pool chaos OK: fleet healed a kill ({healed}) and stayed "
          f"byte-identical to the in-process reference")
    run_stdio(args)
    print(f"CHAOS SMOKE OK: healed kills (two pools), journal recovery, "
          f"byte-identical pooled replies, clean SIGTERM drain, stdio "
          f"daemon healed (state in {state_dir})")


def run_stdio(args) -> None:
    """``fdrepair serve --stdio --parallel 1`` with a worker killed at
    its first solve: open → append → repair, an over-long line, and a
    ping must each be answered within the step timeout."""
    import queue
    import threading

    deadline = args.timeout
    env = _smoke_env()
    env[FAULTS_ENV] = json.dumps(CHAOS_PLAN)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--stdio",
         "--parallel", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env,
    )
    replies: "queue.Queue[bytes]" = queue.Queue()

    def _pump() -> None:
        for line in proc.stdout:
            replies.put(line)
        replies.put(b"")

    threading.Thread(target=_pump, daemon=True).start()

    def rpc(line: str) -> dict:
        start = time.monotonic()
        proc.stdin.write(line.encode("utf-8") + b"\n")
        proc.stdin.flush()
        try:
            raw = replies.get(timeout=deadline)
        except queue.Empty:
            fail(f"no stdio reply within {deadline}s to {line[:80]!r}", proc)
        if not raw:
            fail(f"stdio daemon closed its output answering {line[:80]!r}",
                 proc)
        reply = json.loads(raw)
        print(f"  {reply.get('op', '?')}: {json.dumps(reply)[:120]} "
              f"({time.monotonic() - start:.2f}s)")
        return reply

    base = {"tenant": "acme", "session": "main"}
    reply = rpc(json.dumps({"op": "open", "schema": ["A", "B"],
                            "fds": "A -> B", **base}))
    if not reply.get("ok"):
        fail(f"stdio open failed: {reply}", proc)
    reply = rpc(json.dumps({"op": "append", "repair": False, **base,
                            "rows": [["a", "x"], ["a", "y"], ["b", "z"]]}))
    if not reply.get("ok"):
        fail(f"stdio append failed: {reply}", proc)
    reply = rpc(json.dumps({"op": "repair", **base}))
    if not reply.get("ok") or reply.get("distance") != 1.0:
        fail(f"stdio repair wrong under a worker kill: {reply}", proc)
    reply = rpc(json.dumps({"op": "ping", "pad": "x" * OVERLONG_BYTES}))
    if reply.get("ok") or "exceeds" not in str(reply.get("error")):
        fail(f"over-long line not refused with an error: {reply}", proc)
    if not rpc(json.dumps({"op": "ping"})).get("pong"):
        fail("ping after an over-long line went unanswered", proc)
    sup = {}
    poll_until = time.monotonic() + deadline
    while time.monotonic() < poll_until:
        sup = rpc(json.dumps({"op": "stats"})).get("pool_supervision", {})
        if sup.get("respawns", 0) >= 1:
            break
        time.sleep(0.2)
    if sup.get("worker_deaths", 0) < 1 or sup.get("respawns", 0) < 1:
        fail(f"stdio daemon saw no worker death/respawn: {sup}", proc)
    if not rpc(json.dumps({"op": "shutdown"})).get("ok"):
        fail("stdio shutdown not acknowledged", proc)
    proc.stdin.close()
    try:
        code = proc.wait(timeout=deadline)
    except subprocess.TimeoutExpired:
        fail(f"stdio daemon still running {deadline}s after shutdown", proc)
    if code != 0:
        fail(f"stdio daemon exited {code}: "
             f"{proc.stderr.read().decode('utf-8', 'replace')[-500:]}")
    print(f"STDIO SMOKE OK: every reply within {deadline:g}s, worker "
          f"kill healed ({sup}), over-long line refused")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--timeout", type=float, default=STEP_TIMEOUT,
                        help="hard per-step timeout in seconds")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="pass --trace PATH through to fdrepair serve "
                             "and assert the daemon wrote a telemetry log")
    parser.add_argument("--chaos", action="store_true",
                        help="run the fault-tolerance smoke: worker kill "
                             "+ hard restart + SIGTERM drain")
    parser.add_argument("--state-dir", metavar="PATH", default=None,
                        help="state dir for --chaos (kept afterwards so "
                             "CI can upload the journal as an artifact)")
    parser.add_argument("--stdio", action="store_true",
                        help="run only the serve --stdio daemon smoke")
    args = parser.parse_args()
    if args.chaos:
        run_chaos(args)
        return
    if args.stdio:
        run_stdio(args)
        return
    deadline = args.timeout
    run_legacy_state(args)

    env = _smoke_env()
    extra = ["--trace", args.trace] if args.trace else []
    proc, port = _spawn(extra, env, deadline)
    sock, rpc = _connect(port, deadline, proc)

    # Step 2: two tenants, one shared pool; conflicting appends repair
    # with the expected distances.
    if not rpc({"op": "ping"}).get("pong"):
        fail("ping did not pong", proc)
    for tenant in ("acme", "globex"):
        reply = rpc({"op": "open", "tenant": tenant, "session": "main",
                     "schema": ["A", "B"], "fds": "A -> B"})
        if not reply.get("ok"):
            fail(f"open failed for {tenant}: {reply}", proc)
        reply = rpc({"op": "append", "tenant": tenant, "session": "main",
                     "rows": [["a", "x"], ["a", "y"], ["b", "z"]]})
        if not reply.get("ok") or reply.get("distance") != 1.0:
            fail(f"append repair wrong for {tenant}: {reply}", proc)
        reply = rpc({"op": "status", "tenant": tenant, "session": "main"})
        if not reply.get("ok") or reply.get("conflicts") != 1:
            fail(f"status wrong for {tenant}: {reply}", proc)
        reply = rpc({"op": "repair", "tenant": tenant, "session": "main"})
        if not reply.get("ok") or reply.get("distance") != 1.0:
            fail(f"repair wrong for {tenant}: {reply}", proc)
    # A malformed guarantee is refused at open and keeps no slot: the
    # stats below still count exactly the two tenants above.
    reply = rpc({"op": "open", "tenant": "initech", "session": "main",
                 "schema": ["A", "B"], "fds": "A -> B",
                 "guarantee": "bogus"})
    if reply.get("ok") is not False:
        fail(f"open with guarantee 'bogus' was not refused: {reply}", proc)

    stats = rpc({"op": "stats"})
    if stats.get("sessions") != 2:
        fail(f"expected 2 sessions in stats: {stats}", proc)
    tenant_sessions = stats.get("tenant_sessions", {})
    for tenant in ("acme", "globex"):
        if tenant_sessions.get(tenant, {}).get("resident") != 1:
            fail(f"per-tenant stats missing {tenant}: {stats}", proc)
    if stats.get("op_latency_s", {}).get("op.append", {}).get("count") != 2:
        fail(f"expected 2 appends in op latency histogram: {stats}", proc)
    # An op is counted before its reply is sent, so every op answered
    # above is in the histogram (the refused open included).
    answered = {"op.open": 3, "op.append": 2, "op.repair": 2, "op.status": 2}
    counted = {name: stats.get("op_latency_s", {}).get(name, {}).get("count")
               for name in answered}
    if counted != answered:
        fail(f"op latency counts {counted}, expected {answered}: {stats}",
             proc)
    # The second tenant's identical component should ride the first's
    # solve through the shared cache.
    if stats.get("cache_hits", 0) < 1:
        fail(f"expected cross-tenant cache hits: {stats}", proc)

    # Step 3: shutdown is acknowledged and the process exits by itself.
    if not rpc({"op": "shutdown"}).get("ok"):
        fail("shutdown not acknowledged", proc)
    sock.close()
    try:
        code = proc.wait(timeout=deadline)
    except subprocess.TimeoutExpired:
        fail(f"daemon still running {deadline}s after shutdown", proc)
    if code != 0:
        _out, err = proc.communicate()
        fail(f"daemon exited {code}: {err.decode('utf-8', 'replace')[-500:]}")
    if args.trace:
        if not os.path.exists(args.trace) or not os.path.getsize(args.trace):
            fail(f"daemon wrote no telemetry trace at {args.trace}")
        with open(args.trace, "r", encoding="utf-8") as handle:
            types = {json.loads(line).get("type")
                     for line in handle if line.strip()}
        if "op" not in types or "summary" not in types:
            fail(f"trace missing op/summary records (saw {sorted(types)})")
        print(f"trace OK: {sorted(types)} records in {args.trace}")
    print("SMOKE OK: legacy state recovered, two tenants served, clean "
          "shutdown")


if __name__ == "__main__":
    main()
