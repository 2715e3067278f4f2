"""The workloads: their constants and their seeded inputs.

Everything a run feeds the program is generated here from ``--seed`` with the
benchmark's own code (the dataset generator below is a frozen copy of the
*shape* of the repository's TAXIS stand-in, so a later change to
``repro.datasets`` cannot move the inputs).  The constants are the same on both
sides of any comparison; change them only in a PR that changes nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

# TAXIS stand-in (paper Table 4): very short trips, temporally clustered.
DOMAIN = 31_768_287
MEAN_DURATION = 0.000024 * DOMAIN
MAX_DURATION = 0.0676 * DOMAIN
DURATION_SIGMA = 2.5
CLUSTERS = 8
CLUSTER_SHARE = 0.6
CLUSTER_SCALE = 0.01 * DOMAIN

#: ops generated per second of a closed-loop phase; a phase that runs out of
#: ops ends early (rates use the actual duration), so this only has to exceed
#: what the program can do
MAX_OPS_PER_S = 6000

#: a run alternates a closed-loop and a single-caller phase, each this long,
#: with a host-speed probe between them: short enough that the probes before
#: and after a phase say how fast the host ran during it
PHASE_S = 0.5
#: a p95 window must hold this many samples, so >= 12 lie beyond the percentile
MIN_WINDOW_SAMPLES = 250
#: one response in this many has its full id set compared with the oracle
ID_CHECK_EVERY = 50
#: queries checked against the oracle at each quiesce point of ``mixed_rw``
QUIESCE_CHECKS = 64
#: ``mixed_rw`` quiesces and checks after every this many rounds (and the last)
QUIESCE_EVERY = 4
#: connections / threads the load generator uses (nproc of the reference box)
CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    """Constants of one workload (see ``README.md`` for why each exists)."""

    name: str
    why: str
    intervals: int
    backend: str
    shards: int
    #: ``None``: the store lives in the runner (no server child)
    cache_size: "int | None"
    #: query extent as a share of the data's span
    extent: float
    #: 0: every query is distinct; else reads are drawn from this many ranges
    hot_queries: int = 0
    #: intervals each hot range holds (their extents follow from the data)
    hot_ids: int = 0
    #: share of reads that repeat a hot range (1.0 with Zipf(1) popularity)
    hot_share: float = 0.0
    #: share of ops that are reads; the rest are inserts and deletes 1:1
    read_share: float = 1.0
    #: open-loop arrival rate, ops/s over all connections
    open_rate: float = 0.0
    #: length of the open loop's windows whose p95s are medianed
    window_s: float = 0.0
    #: ops per closed-loop call (``run_batch`` chunk); 1 for served workloads
    chunk: int = 1
    #: False: runs by hand, but the time the driver allows has no room for it
    gated: bool = True

    @property
    def served(self) -> bool:
        return self.cache_size is not None

    @property
    def durable(self) -> bool:
        return self.read_share < 1.0

    def serve_args(self, csv: str, wal_dir: "str | None") -> "list[str]":
        """``python -m repro serve`` arguments of this workload's server."""
        args = [
            "serve", csv, "--port", "0", "--index", self.backend,
            "--shards", str(self.shards), "--cache-size", str(self.cache_size or 0),
        ]
        if wal_dir is not None:
            # the flush policy is part of the workload: every acknowledged
            # update is fsynced before the reply
            args += ["--wal-dir", wal_dir, "--fsync", FSYNC_POLICY]
        return args


FSYNC_POLICY = "always"

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="core_scan",
            why="in-process HINT^m batches and single queries: all time is index + store, no server",
            intervals=400_000, backend="hintm_opt", shards=1, cache_size=None,
            extent=0.001, window_s=0.25, chunk=500,
        ),
        Workload(
            name="serve_uniform",
            why="HTTP server, every query distinct and cache off: parse, batch queue, execute, encode, decode",
            intervals=200_000, backend="hintm_opt", shards=1, cache_size=0,
            extent=0.001, open_rate=400.0, window_s=0.8,
        ),
        Workload(
            name="serve_hot",
            why="HTTP server, 64 hot queries of ~2k ids each, Zipf(1): every request is a result-cache hit",
            intervals=200_000, backend="hintm_opt", shards=1, cache_size=1024,
            extent=0.01, hot_queries=64, hot_ids=2000, hot_share=1.0, open_rate=400.0,
            window_s=0.8, gated=False,
        ),
        Workload(
            name="mixed_rw",
            why="durable 2-shard hybrid server, 70% reads beside 30% fsynced inserts/deletes, then crash recovery",
            intervals=100_000, backend="hintm_hybrid", shards=2, cache_size=1024,
            extent=0.001, hot_queries=32, hot_ids=100, hot_share=0.5, read_share=0.7,
            open_rate=300.0, window_s=1.25,
        ),
    )
}

#: reads per closed-loop round of ``mixed_rw`` and updates beside them (70/30)
ROUND_READS, ROUND_UPDATES = 7, 3


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, purpose); purposes never collide."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def dataset(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` TAXIS-shaped intervals as ``(starts, ends)``; ids are ``0..n-1``."""
    rng = rng_for(seed, 1)
    mu = np.log(MEAN_DURATION) - 0.5 * DURATION_SIGMA**2
    durations = rng.lognormal(mean=mu, sigma=DURATION_SIGMA, size=n)
    durations = np.clip(durations, 1, MAX_DURATION).astype(np.int64)
    uniform = rng.uniform(0, DOMAIN, size=n)
    centers = rng.uniform(0, DOMAIN, size=CLUSTERS)
    clustered = rng.normal(centers[rng.integers(0, CLUSTERS, size=n)], CLUSTER_SCALE)
    positions = np.where(rng.random(n) < CLUSTER_SHARE, clustered, uniform)
    starts = np.clip(positions, 0, DOMAIN - 1).astype(np.int64)
    ends = np.maximum(np.minimum(starts + durations, DOMAIN - 1), starts)
    return starts, ends


def uniform_queries(
    rng: np.random.Generator, count: int, extent: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` uniformly placed range queries of one extent over the domain."""
    width = int(round(extent * DOMAIN))
    qs = rng.integers(0, DOMAIN, size=count)
    return qs, np.minimum(qs + width, DOMAIN - 1)


@dataclass(frozen=True)
class UpdateStream:
    """Inserts and deletes of one run, alternating insert, delete, insert ...

    Inserted intervals resample the base data (a base start, jittered, with a
    base duration), so they land where the data and the hot ranges are; their
    ids run from ``n`` up.  Deletes take base ids in a seeded order, each
    once, so no op can fail.
    """

    insert_ids: np.ndarray
    insert_starts: np.ndarray
    insert_ends: np.ndarray
    delete_ids: np.ndarray


class Inputs:
    """Everything one run feeds the program, a function of (workload, seed)."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.starts, self.ends = dataset(workload.intervals, seed)
        self.hot_s, self.hot_e = self._hot_ranges()

    def _hot_ranges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Hot ranges that each hold ``hot_ids`` interval starts.

        Fixed-extent ranges over clustered data return anything from nothing
        to several thousand ids, and with Zipf popularity the cost of a run
        would then hang on where the seed put its two or three most popular
        ranges.  Fixing the result size instead keeps seeds comparable.
        """
        w = self.workload
        if not w.hot_queries:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ordered = np.sort(self.starts)
        first = rng_for(self.seed, 3).integers(0, len(ordered) - w.hot_ids, size=w.hot_queries)
        return ordered[first], ordered[first + w.hot_ids - 1]

    def reads(self, stream: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """The queries of one phase, in issue order; phases never share a stream."""
        w = self.workload
        rng = rng_for(self.seed, 2, stream)
        qs, qe = uniform_queries(rng, count, w.extent)
        if not w.hot_queries:
            return qs, qe
        if w.hot_share >= 1.0:
            # Zipf(1): the k-th most popular range is asked 1/k as often
            weights = 1.0 / np.arange(1, w.hot_queries + 1)
            pick = rng.choice(w.hot_queries, size=count, p=weights / weights.sum())
            return self.hot_s[pick], self.hot_e[pick]
        pick = rng.integers(0, w.hot_queries, size=count)
        hot = rng.random(count) < w.hot_share
        return np.where(hot, self.hot_s[pick], qs), np.where(hot, self.hot_e[pick], qe)

    def updates(self, count: int) -> UpdateStream:
        """``count`` inserts and ``count`` deletes; phases take consecutive slices."""
        rng = rng_for(self.seed, 4)
        starts, ends, n = self.starts, self.ends, len(self.starts)
        new_starts = np.clip(
            starts[rng.integers(0, n, size=count)] + rng.integers(-1000, 1000, size=count),
            0, DOMAIN - 1,
        )
        donors = rng.integers(0, n, size=count)
        new_ends = np.minimum(new_starts + (ends[donors] - starts[donors]), DOMAIN - 1)
        return UpdateStream(
            insert_ids=np.arange(n, n + count, dtype=np.int64),
            insert_starts=new_starts,
            insert_ends=new_ends,
            delete_ids=rng.permutation(n)[:count],
        )
