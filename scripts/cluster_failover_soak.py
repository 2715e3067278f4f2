#!/usr/bin/env python
"""Failover soak: SIGKILL a WAL-shipping leader, promote the follower.

Extends the crash-recovery soak (``scripts/crash_recovery_soak.py``) to a
two-process cluster pair.  Each round:

1. A child process opens the durable store over the shared WAL directory
   and serves it through a :class:`~repro.cluster.shard_server.ShardServer`
   (the leader).
2. The parent attaches an in-process
   :class:`~repro.cluster.follower.ClusterFollower` -- bootstrap from the
   leader's ``/checkpoint``, then continuous ``/wal-feed`` replay -- and
   mirrors the follower's applied generation into an on-disk file.
3. The child streams the round's deterministic insert/delete ops
   **semi-synchronously**: op *k*'s ack is fsynced only after the mirrored
   follower generation has caught up to the leader's, so every acked op is
   both durable on the leader and applied on the follower.
4. The leader is killed mid-shipping -- at a named durability crash point
   (armed by the child itself *after* the follower attached, so bootstrap
   checkpoints never eat the trigger) or by a timer SIGKILL.
5. The parent promotes the follower over HTTP (``POST /promote``) and
   requires the live id set it serves to be exactly the acked prefix plus
   at most the one in-flight op.  It then reopens the leader's WAL
   directory and holds it to the same oracle, independently.

``replay.before_apply`` fires during recovery, not shipping: those rounds
first timer-kill a serving leader (follower promoted and checked as usual),
then crash a second child mid-replay while it recovers the WAL tail.

Usage::

    PYTHONPATH=src python scripts/cluster_failover_soak.py --rounds 8

The CI cluster-smoke job runs this under a timeout guard; ``--max-seconds``
additionally stops starting new rounds past the budget.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))

_spec = importlib.util.spec_from_file_location(
    "crash_recovery_soak", Path(__file__).resolve().parent / "crash_recovery_soak.py"
)
crash_soak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(crash_soak)

from repro.durability.faults import CRASH_POINTS  # noqa: E402

BASE_ROWS = crash_soak.BASE_ROWS
STREAM_ID_BASE = crash_soak.STREAM_ID_BASE
base_collection = crash_soak.base_collection
build_round_ops = crash_soak.build_round_ops
apply_ops = crash_soak.apply_ops
live_set = crash_soak.live_set
_open = crash_soak._open
_read_ack = crash_soak._read_ack
_require_fired = crash_soak._require_fired

#: the whole domain the soak streams into (build_round_ops stays well inside)
_DOMAIN = (-1, 1 << 30)


def _wait_file(path: Path, child, timeout: float) -> bool:
    """True once ``path`` has content; False if the child died first."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if path.read_text().strip():
                return True
        except OSError:
            pass
        if child is not None and child.poll() is not None:
            return False
        time.sleep(0.002)
    return False


def _read_int(path: Path, default: int = -1) -> int:
    try:
        text = Path(path).read_text().strip()
        return int(text) if text else default
    except (OSError, ValueError):
        return default


# ---------------------------------------------------------------------- #
# child: serve the shard while streaming ops, ack semi-synchronously
# ---------------------------------------------------------------------- #
def child_main(args) -> int:
    from repro.core.interval import Interval
    from repro.cluster.shard_server import start_shard_server_thread
    from repro.durability.faults import injector

    if args.crash_point and args.arm_phase == "open":
        # replay.before_apply fires while recovery walks the WAL tail --
        # that happens inside _open, so arm before it
        injector.arm(args.crash_point, after=args.crash_delay)
    store = _open(args, args.wal_dir)
    handle = start_shard_server_thread(store, host="127.0.0.1", port=0, shard_id=0)
    with open(args.port_file, "w") as handout:
        handout.write(f"{handle.port}\n")
        handout.flush()
        os.fsync(handout.fileno())

    ops = build_round_ops(sorted(live_set(store)), args.seed, args.ops, args.id_base)
    if ops:
        # let the parent bootstrap its follower before arming: bootstrap
        # runs /checkpoint on this server, and the crash must land
        # mid-shipping, not while the standby is still being born
        if not _wait_file(args.ready_file, None, 60.0):
            print("child: follower never became ready", file=sys.stderr)
            return 3
        if args.crash_point and args.arm_phase == "stream":
            injector.arm(args.crash_point, after=args.crash_delay)

    ack = open(args.ack_file, "w")
    for k, (op, interval_id, start, end) in enumerate(ops):
        if op == "insert":
            store.insert(Interval(interval_id, start, end))
        else:
            store.delete(interval_id)
        if args.maintain_every and (k + 1) % args.maintain_every == 0:
            store.maintain(force=True, checkpoint=True)
        # semi-synchronous commit: the ack means "durable here AND applied
        # on the standby", so a promoted follower can never trail an ack
        target = int(store.result_generation())
        sync_deadline = time.monotonic() + 120.0
        while _read_int(args.gen_file) < target:
            if time.monotonic() > sync_deadline:
                print(f"child: follower sync stalled at op {k}", file=sys.stderr)
                return 3
            time.sleep(0.002)
        ack.write(f"{k + 1}\n")
        ack.flush()
        os.fsync(ack.fileno())
    ack.close()
    handle.stop()
    store.close()
    return 0


# ---------------------------------------------------------------------- #
# parent: attach follower, kill leader, promote, oracle-check both sides
# ---------------------------------------------------------------------- #
def _start_follower(args, port: int, gen_file: Path):
    """Follower + a poller thread mirroring its generation to disk."""
    from repro.cluster.follower import ClusterFollower

    follower = ClusterFollower(
        "127.0.0.1", port, backend=args.backend, poll_timeout=2.0
    ).start()
    stop = threading.Event()

    def poll() -> None:
        last = -1
        tmp = gen_file.with_name(gen_file.name + ".tmp")
        while not stop.is_set():
            try:
                generation = follower.applied_generation()
            except Exception:
                generation = last
            if generation > last:
                tmp.write_text(f"{generation}\n")
                os.replace(tmp, gen_file)
                last = generation
            stop.wait(0.002)

    thread = threading.Thread(target=poll, name="repro-gen-mirror", daemon=True)
    thread.start()
    return follower, stop, thread


def _promote_and_serve(follower) -> "tuple[set[int], dict]":
    """Take over via the follower's own HTTP surface; return served ids."""
    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", follower.port, timeout=30.0) as client:
        promotion = client.request("POST", "/promote")
        info = client.request("GET", "/cluster-info")
        if info.get("role") != "leader" or info.get("read_only"):
            raise SystemExit(f"promotion did not flip the server: {info}")
        served = client.query(*_DOMAIN)
    return set(int(i) for i in served["ids"]), promotion


def run_round(args, directory, round_no, oracle, deadline) -> bool:
    """One attach/kill/promote/verify cycle; False when out of budget."""
    if time.monotonic() > deadline:
        print(f"round {round_no}: skipped (past --max-seconds budget)")
        return False
    seed = args.seed + round_no
    id_base = STREAM_ID_BASE + round_no * 1_000_000
    directory = Path(directory)
    ack_file = directory / f"ack-{round_no}.txt"
    port_file = directory / f"port-{round_no}.txt"
    gen_file = directory / f"follower-gen-{round_no}.txt"
    ready_file = directory / f"ready-{round_no}.txt"
    crash_point = (
        CRASH_POINTS[(round_no // 2) % len(CRASH_POINTS)]
        if round_no % 2 == 0
        else None  # odd rounds: a timer SIGKILL at an arbitrary moment
    )

    def spawn(ops, point=None, delay=0, arm_phase="stream", suffix="",
              maintain_every=args.maintain_every):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_ROOT / "src")
        return subprocess.Popen(
            [
                sys.executable, __file__, "--child",
                "--wal-dir", str(directory),
                "--ack-file", str(directory / f"ack-{round_no}{suffix}.txt"),
                "--port-file", str(directory / f"port-{round_no}{suffix}.txt"),
                "--gen-file", str(gen_file), "--ready-file", str(ready_file),
                "--backend", args.backend, "--shards", str(args.shards),
                "--fsync", args.fsync, "--seed", str(seed),
                "--ops", str(ops), "--id-base", str(id_base),
                "--maintain-every", str(maintain_every),
                "--crash-point", point or "", "--crash-delay", str(delay),
                "--arm-phase", arm_phase,
            ],
            env=env,
        )

    # -- leader up, follower attached ---------------------------------- #
    replaying = crash_point == "replay.before_apply"
    child = spawn(
        args.ops,
        point=None if replaying else crash_point,
        # append points fire per WAL record: delay half the stream so the
        # crash lands mid-shipping.  checkpoint/truncate points only fire
        # at the child's own maintain checkpoints (arming happens after
        # the follower's bootstrap /checkpoint), so the first hit is fine
        delay=args.ops // 2 if (crash_point or "").startswith("append.") else 0,
        # a replay round's leader never checkpoints, so the tail it leaves
        # holds at least half the stream -- past the ops // 8 records the
        # recovering child's crash waits for
        maintain_every=0 if replaying else args.maintain_every,
    )
    if not _wait_file(port_file, child, 60.0):
        raise SystemExit(f"round {round_no}: leader never published its port")
    port = _read_int(port_file)
    follower, poll_stop, poll_thread = _start_follower(args, port, gen_file)
    ready_file.write_text("ok\n")

    try:
        if crash_point is not None and not replaying:
            child.wait()
        else:
            # kill once the child is observably mid-stream, not on a
            # wall-clock guess -- the ack file is the progress signal
            target = (
                args.ops // 2
                if replaying
                else random.Random(seed).randrange(args.ops // 4, 3 * args.ops // 4)
            )
            while child.poll() is None and _read_ack(ack_file) < target:
                time.sleep(0.002)
            if child.poll() is None:
                os.kill(child.pid, signal.SIGKILL)
            child.wait()
        killed = child.returncode == -signal.SIGKILL
        if child.returncode == 3:
            raise SystemExit(f"round {round_no}: semi-sync stalled in the child")
        if crash_point is not None and not replaying:
            _require_fired(round_no, crash_point, child.returncode)

        acked = _read_ack(ack_file)
        ops = build_round_ops(sorted(oracle), seed, args.ops, id_base)
        # acked prefix, plus at most the one in-flight op (durable, un-acked)
        candidates = {
            k: apply_ops(dict(oracle), ops[:k]) for k in (acked, acked + 1)
        }

        # -- takeover: the promoted follower serves the acked prefix ---- #
        served_ids, promotion = _promote_and_serve(follower)
        follower_match = next(
            (k for k, want in candidates.items() if served_ids == set(want)), None
        )
        if follower_match is None:
            want = set(candidates[acked])
            raise SystemExit(
                f"round {round_no}: promoted follower diverged at ack={acked} "
                f"(crash_point={crash_point}): +{sorted(served_ids - want)[:5]} "
                f"-{sorted(want - served_ids)[:5]}"
            )
        shipping = (
            f"applied={follower.records_applied} resyncs={follower.resyncs} "
            f"skipped={follower.replay_skipped}"
        )
    finally:
        poll_stop.set()
        poll_thread.join(timeout=10.0)
        follower.stop()

    if replaying:
        # now crash a recovering leader mid-replay of the tail just left
        recoverer = spawn(
            0, point=crash_point, delay=args.ops // 8,
            arm_phase="open", suffix="-replay",
        )
        recoverer.wait()
        killed = recoverer.returncode == -signal.SIGKILL
        _require_fired(round_no, crash_point, recoverer.returncode)

    # -- independent check: the leader's own WAL recovers the same state #
    store = _open(args, directory)
    recovered = live_set(store)
    match = next(
        (k for k, expected in candidates.items() if recovered == expected), None
    )
    if match is None:
        expected = candidates[acked]
        extra = sorted(set(recovered) - set(expected))[:5]
        missing = sorted(set(expected) - set(recovered))[:5]
        raise SystemExit(
            f"round {round_no}: leader WAL recovery diverged at ack={acked} "
            f"(crash_point={crash_point}, killed={killed}): +{extra} -{missing}"
        )
    generation = store.result_generation()
    store.close()

    # recovery must be idempotent: a second reopen changes nothing
    store2 = _open(args, directory)
    if live_set(store2) != recovered:
        raise SystemExit(f"round {round_no}: second reopen changed the live set")
    if store2.result_generation() < generation:
        raise SystemExit(f"round {round_no}: second reopen lost generations")
    store2.close()

    oracle.clear()
    oracle.update(candidates[match])
    print(
        f"round {round_no:3d}: ok -- acked {acked}/{args.ops}, follower served "
        f"k={follower_match} ({shipping}), leader recovered k={match}, "
        f"crash_point={crash_point or 'timer-SIGKILL'}, killed={killed}, "
        f"{len(oracle)} live, generation {generation}",
        flush=True,
    )
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--wal-dir", type=Path, default=None)
    parser.add_argument("--ack-file", type=Path, default=None)
    parser.add_argument("--port-file", type=Path, default=None)
    parser.add_argument("--gen-file", type=Path, default=None)
    parser.add_argument("--ready-file", type=Path, default=None)
    parser.add_argument("--crash-point", default="", help=argparse.SUPPRESS)
    parser.add_argument("--crash-delay", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--arm-phase", default="stream",
                        choices=("stream", "open"), help=argparse.SUPPRESS)
    parser.add_argument("--backend", default="hintm_hybrid")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--fsync", default="always",
                        help="leader WAL fsync policy (the exact-prefix "
                             "oracle needs 'always')")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--ops", type=int, default=120)
    parser.add_argument("--id-base", type=int, default=STREAM_ID_BASE)
    parser.add_argument("--maintain-every", type=int, default=48,
                        help="leader checkpoints every N ops (0 disables): "
                             "fires checkpoint crash points and forces "
                             "follower resyncs")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--max-seconds", type=float, default=300.0,
                        help="stop starting rounds past this budget")
    args = parser.parse_args(argv)

    if args.child:
        required = (args.wal_dir, args.ack_file, args.port_file,
                    args.gen_file, args.ready_file)
        if any(value is None for value in required):
            parser.error("--child requires the wal/ack/port/gen/ready paths")
        return child_main(args)

    directory = args.wal_dir or Path(tempfile.mkdtemp(prefix="failover-soak-"))
    directory.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + args.max_seconds
    collection = base_collection()
    oracle = {
        int(i): (int(s), int(e))
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
    }
    completed = 0
    for round_no in range(args.rounds):
        if not run_round(args, directory, round_no, oracle, deadline):
            break
        completed += 1
    if completed == 0:
        raise SystemExit("no failover round completed inside the time budget")
    print(f"failover soak ok: {completed}/{args.rounds} rounds, {len(oracle)} live")
    return 0


if __name__ == "__main__":
    sys.exit(main())
