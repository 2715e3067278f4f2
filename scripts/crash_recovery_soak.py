#!/usr/bin/env python
"""Crash-recovery soak: SIGKILL a durable ingest child, recover, oracle-check.

Each round spawns a child process that opens the durable store over the
shared WAL directory (recovering whatever the previous round left), applies
a deterministic interleaved insert/delete stream, and acknowledges every
applied operation by fsyncing its index to an ack file.  The parent kills
the child mid-stream -- either with a timer SIGKILL or by arming one of the
named durability crash points (``REPRO_CRASH_POINT``) so the kill lands at
an exact WAL/checkpoint ordering boundary -- then reopens the store and
checks the recovered live set against the oracle.

The durability contract under ``fsync="always"``: the recovered set must be
*exactly* the acked prefix of the stream, plus at most the single in-flight
operation whose WAL record was written but whose ack was not.  Anything
else -- a lost acked update, a phantom, a divergent span -- fails the soak.
A second reopen must be a no-op (recovery is idempotent).

Usage::

    PYTHONPATH=src python scripts/crash_recovery_soak.py --rounds 8

The CI crash-smoke job runs this under a timeout guard; ``--max-seconds``
additionally stops starting new rounds past the budget.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.interval import Interval, IntervalCollection  # noqa: E402
from repro.durability.faults import CRASH_POINTS, ENV_CRASH_POINT  # noqa: E402
from repro.engine import IntervalStore  # noqa: E402

#: ids the seed collection occupies; stream ids start well past it
BASE_ROWS = 50
STREAM_ID_BASE = 10_000_000


def base_collection() -> IntervalCollection:
    return IntervalCollection.from_intervals(
        [Interval(i, i * 100, i * 100 + 60) for i in range(BASE_ROWS)]
    )


def build_round_ops(live_ids, seed, num_ops, id_base):
    """The round's deterministic op stream, as both child and parent see it.

    ``live_ids`` is the recovered live set the round starts from; deletes
    draw from a simulated copy of it, so every delete targets a live id and
    the parent can re-derive the exact stream from the recovered state.
    """
    rng = random.Random(seed)
    live = sorted(int(i) for i in live_ids)
    ops = []
    next_id = id_base
    for j in range(num_ops):
        # net-positive two-to-one mix keeps the store non-empty
        if j % 3 == 2 and len(live) > BASE_ROWS // 2:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(("delete", victim, 0, 0))
        else:
            start = rng.randrange(0, 5_000)
            end = start + rng.randrange(1, 500)
            ops.append(("insert", next_id, start, end))
            live.append(next_id)
            next_id += 1
    return ops


def apply_ops(live, ops):
    """Fold ``ops`` into a live ``{id: (start, end)}`` dict (the oracle)."""
    for op, interval_id, start, end in ops:
        if op == "insert":
            live[interval_id] = (start, end)
        else:
            live.pop(interval_id, None)
    return live


def live_set(store):
    return {
        interval.id: (interval.start, interval.end)
        for interval in store.index.live_collection()
    }


def _open(args, directory):
    return IntervalStore.open(
        base_collection(),
        args.backend,
        num_shards=args.shards,
        wal_dir=str(directory),
        fsync=args.fsync,
    )


# ---------------------------------------------------------------------- #
# child: apply one round's stream, acking every applied op
# ---------------------------------------------------------------------- #
def child_main(args) -> int:
    store = _open(args, args.wal_dir)
    ops = build_round_ops(
        sorted(live_set(store)), args.seed, args.ops, args.id_base
    )
    ack = open(args.ack_file, "w")
    for k, (op, interval_id, start, end) in enumerate(ops):
        if op == "insert":
            store.insert(Interval(interval_id, start, end))
        else:
            store.delete(interval_id)
        if args.maintain_every and (k + 1) % args.maintain_every == 0:
            store.maintain(force=True, checkpoint=True)
        # ack only after the op (WAL-first) applied: an acked op is durable
        ack.write(f"{k + 1}\n")
        ack.flush()
        os.fsync(ack.fileno())
    ack.close()
    store.close()
    return 0


def _read_ack(path) -> int:
    """Last complete ack line (a raw SIGKILL can tear the final write)."""
    acked = 0
    try:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if line.isdigit():
                acked = int(line)
    except OSError:
        pass
    return acked


# ---------------------------------------------------------------------- #
# parent: kill, recover, oracle-check
# ---------------------------------------------------------------------- #
def _require_fired(round_no: int, crash_point: str, exit_code: int) -> None:
    """An armed round whose point never fired tested nothing: fail it."""
    if exit_code != -signal.SIGKILL:
        raise SystemExit(
            f"round {round_no}: crash point {crash_point} was armed but never "
            f"fired (child exit code {exit_code})"
        )


def run_round(args, directory, round_no, oracle, deadline) -> bool:
    """One kill/recover/verify cycle; returns False when out of budget."""
    if time.monotonic() > deadline:
        print(f"round {round_no}: skipped (past --max-seconds budget)")
        return False
    seed = args.seed + round_no
    id_base = STREAM_ID_BASE + round_no * 1_000_000
    ack_file = directory / f"ack-{round_no}.txt"
    crash_point = (
        CRASH_POINTS[(round_no // 2) % len(CRASH_POINTS)]
        if round_no % 2 == 0
        else None  # odd rounds: a timer SIGKILL at an arbitrary moment
    )

    def spawn(ops, point=None, delay=0, ack=None, maintain_every=args.maintain_every):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        if point:
            env[ENV_CRASH_POINT] = f"{point}:crash:{delay}"
        return subprocess.Popen(
            [
                sys.executable, __file__, "--child",
                "--wal-dir", str(directory), "--ack-file", str(ack or ack_file),
                "--backend", args.backend, "--shards", str(args.shards),
                "--fsync", args.fsync, "--seed", str(seed),
                "--ops", str(ops), "--id-base", str(id_base),
                "--maintain-every", str(maintain_every),
            ],
            env=env,
        )

    if crash_point == "replay.before_apply":
        # replay only happens at open: first leave a WAL tail with a raw
        # kill, then a second child crashes mid-replay recovering it.  The
        # first child never checkpoints, so the tail holds at least half the
        # stream -- well past the ops // 8 records the crash waits for
        child = spawn(args.ops, maintain_every=0)
        while child.poll() is None and _read_ack(ack_file) < args.ops // 2:
            time.sleep(0.002)
        if child.poll() is None:
            os.kill(child.pid, signal.SIGKILL)
        child.wait()
        recoverer = spawn(
            0, point=crash_point, delay=args.ops // 8,
            ack=directory / f"ack-{round_no}-replay.txt",
        )
        exit_code = recoverer.wait()
        killed = exit_code == -signal.SIGKILL
    elif crash_point is not None:
        # append points fire per op: delay so the crash lands mid-stream.
        # checkpoint/truncate points fire per checkpoint: crash on the first
        child = spawn(
            args.ops,
            point=crash_point,
            delay=args.ops // 2 if crash_point.startswith("append.") else 0,
        )
        exit_code = child.wait()
        killed = exit_code == -signal.SIGKILL
    else:
        # kill once the child is observably mid-stream, not on a wall-clock
        # guess -- the ack file is the progress signal
        child = spawn(args.ops)
        target = random.Random(seed).randrange(args.ops // 4, 3 * args.ops // 4)
        while child.poll() is None and _read_ack(ack_file) < target:
            time.sleep(0.002)
        if child.poll() is None:
            os.kill(child.pid, signal.SIGKILL)
        child.wait()
        killed = child.returncode == -signal.SIGKILL
    if crash_point is not None:
        _require_fired(round_no, crash_point, exit_code)

    acked = _read_ack(ack_file)
    ops = build_round_ops(sorted(oracle), seed, args.ops, id_base)
    store = _open(args, directory)
    recovered = live_set(store)

    # acked prefix, plus at most the one in-flight op (WAL written, un-acked)
    candidates = {k: apply_ops(dict(oracle), ops[:k]) for k in (acked, acked + 1)}
    match = next(
        (k for k, expected in candidates.items() if recovered == expected), None
    )
    if match is None:
        expected = candidates[acked]
        extra = sorted(set(recovered) - set(expected))[:5]
        missing = sorted(set(expected) - set(recovered))[:5]
        raise SystemExit(
            f"round {round_no}: recovered set diverged from the oracle at "
            f"ack={acked} (crash_point={crash_point}, killed={killed}): "
            f"+{extra} -{missing}"
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
        f"round {round_no:3d}: ok -- acked {acked}/{args.ops}, in-flight "
        f"{'applied' if match == acked + 1 else 'dropped'}, "
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
    parser.add_argument("--backend", default="hintm_hybrid")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--fsync", default="always",
                        help="WAL fsync policy for both child and recovery "
                             "(the exact-prefix oracle needs 'always')")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--id-base", type=int, default=STREAM_ID_BASE)
    parser.add_argument("--maintain-every", type=int, default=64,
                        help="child checkpoints every N ops (0 disables), so "
                             "checkpoint crash points actually fire")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--max-seconds", type=float, default=300.0,
                        help="stop starting rounds past this budget")
    args = parser.parse_args(argv)

    if args.child:
        if args.wal_dir is None or args.ack_file is None:
            parser.error("--child requires --wal-dir and --ack-file")
        args.id_base = getattr(args, "id_base")
        return child_main(args)

    directory = args.wal_dir or Path(tempfile.mkdtemp(prefix="crash-soak-"))
    directory.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + args.max_seconds
    oracle = {
        int(i): (int(s), int(e))
        for i, s, e in zip(*(lambda c: (c.ids, c.starts, c.ends))(base_collection()))
    }
    completed = 0
    for round_no in range(args.rounds):
        if not run_round(args, directory, round_no, oracle, deadline):
            break
        completed += 1
    if completed == 0:
        raise SystemExit("no soak round completed inside the time budget")
    print(f"crash soak ok: {completed}/{args.rounds} rounds, {len(oracle)} live")
    return 0


if __name__ == "__main__":
    sys.exit(main())
